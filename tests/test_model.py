import dataclasses

import numpy as np
import pytest

import oracles
from powerctl import model
from powerctl.errors import AssumptionViolation, NotADistribution
from powerctl.model import ModelParams


class TestValidation:
    def test_benchmark_params_valid(self, sec4):
        assert model.validate_params(sec4) is sec4

    def test_theta_one_rejected(self):
        with pytest.raises(AssumptionViolation, match="Assumption 1"):
            ModelParams.good_bad(theta=1.0, beta1=0.4, rho=0.1, lam=1.5, n0=1.0)

    def test_power_cap_rejected(self):
        # 0.5 > 0.5*1/(1 + 0.5*1) = 1/3
        with pytest.raises(AssumptionViolation, match="Assumption 2"):
            ModelParams.good_bad(theta=0.5, beta1=0.4, rho=0.1, lam=1.5, n0=1.0, p_max=0.5)

    def test_bad_distribution(self):
        with pytest.raises(NotADistribution):
            ModelParams(k=2, gains=(0.0, 1.0), beta=(0.5, 0.4), rho=0.1,
                        theta=0.2, n0=1.0, lam=1.5, p_max=10.0, q_max=1)

    def test_markov_rows_checked(self):
        with pytest.raises(NotADistribution):
            ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1,
                        theta=0.2, n0=1.0, lam=1.5, p_max=10.0, q_max=1,
                        channel_matrix=((0.9, 0.2), (0.3, 0.7)))

    # each used to pass: theta <= 0 divides by zero in the fluid, or prices power below
    # zero; a NaN compares False with every bound
    @pytest.mark.parametrize("field, value", [
        ("theta", 0.0), ("theta", -0.5), ("theta", np.nan), ("beta1", np.nan),
        ("n0", np.nan), ("n0", np.inf), ("lam", np.nan), ("lam", np.inf), ("p_max", np.nan),
        ("p_max", np.inf), ("rho", np.nan),
    ])
    def test_nonpositive_theta_and_nonfinite_values_rejected(self, field, value):
        kwargs = dict(theta=0.2, beta1=0.4, rho=0.1, lam=1.5, n0=1.0, p_max=10.0)
        kwargs[field] = value
        with pytest.raises((AssumptionViolation, NotADistribution)):
            ModelParams.good_bad(**kwargs)

    def test_nonfinite_channel_matrix_rejected(self):
        with pytest.raises(NotADistribution, match="non-finite"):
            ModelParams(k=2, gains=(0.0, 1.0), beta=(0.6, 0.4), rho=0.1,
                        theta=0.2, n0=1.0, lam=1.5, p_max=10.0, q_max=1,
                        channel_matrix=((0.7, 0.3), (np.nan, 0.8)))

    def test_rho_bounds(self):
        for rho in (0.0, 1.0, -0.1):
            with pytest.raises(AssumptionViolation):
                ModelParams.good_bad(theta=0.2, beta1=0.4, rho=rho, lam=1.5, n0=1.0)


# the one shape message, up to the shape it was given
SHAPE = r"need k=2, gains \(0, 1\), 2 level probabilities and q_max=1, got "

# parameter fields that validate_params refuses: (fields changed from a valid GOOD/BAD
# set, error type, message)
REFUSED_PARAMS = {
    "negative-level-probability": ({"beta": (1.2, -0.2)}, NotADistribution,
                                   "channel level law has negative entries"),
    "more-gains-than-k": ({"gains": (0.0, 0.5, 1.0)}, AssumptionViolation,
                          SHAPE + r"k=2, gains \(0.0, 0.5, 1.0\), 2 probabilities, q_max=1"),
    "more-probabilities-than-k": ({"beta": (0.3, 0.3, 0.4)}, AssumptionViolation,
                                  SHAPE + r"k=2, gains \(0.0, 1.0\), 3 probabilities, q_max=1"),
    "negative-gain": ({"gains": (-1.0, 1.0)}, AssumptionViolation,
                      SHAPE + r"k=2, gains \(-1.0, 1.0\), 2 probabilities"),
    "unsorted-gains": ({"gains": (1.0, 0.0)}, AssumptionViolation,
                       SHAPE + r"k=2, gains \(1.0, 0.0\), 2 probabilities"),
    "channel-matrix-shape": ({"channel_matrix": ((1.0,),)}, AssumptionViolation,
                             r"channel matrix must be 2x2, got \(1, 1\)"),
    "n0-zero": ({"n0": 0.0}, AssumptionViolation, "noise power must be positive, got 0.0"),
    "n0-negative": ({"n0": -1.0}, AssumptionViolation, "noise power must be positive"),
    "lam-negative": ({"lam": -0.1}, AssumptionViolation,
                     "queue weight must be nonnegative, got -0.1"),
    "q-max-zero": ({"q_max": 0}, AssumptionViolation, SHAPE + r"k=2, .* q_max=0"),
    "gains-not-good-bad": ({"gains": (0.0, 2.0)}, AssumptionViolation,
                           SHAPE + r"k=2, gains \(0.0, 2.0\), 2 probabilities"),
    "three-levels": ({"k": 3, "gains": (0.0, 0.5, 1.0), "beta": (0.2, 0.3, 0.5)},
                     AssumptionViolation,
                     SHAPE + r"k=3, gains \(0.0, 0.5, 1.0\), 3 probabilities, q_max=1"),
    "two-packet-buffer": ({"q_max": 2}, AssumptionViolation, SHAPE + r"k=2, .* q_max=2"),
    "rho-zero": ({"rho": 0.0}, AssumptionViolation, r"arrival probability must lie in \(0,1\)"),
    "rho-one": ({"rho": 1.0}, AssumptionViolation, r"arrival probability .* got 1.0"),
    "rho-negative": ({"rho": -0.1}, AssumptionViolation, r"arrival probability .* got -0.1"),
    # Assumption 2 needs p_max >= theta n0 / (1 - theta) = 0.25
    "p-max-below-bound": ({"p_max": 0.21}, AssumptionViolation, "Assumption 2 violated"),
    **{f"{name}-{value}": ({name: value}, AssumptionViolation, f"{name} must be finite")
       for name in ("rho", "theta", "n0", "lam", "p_max") for value in (np.nan, np.inf)},
    "beta-nan": ({"beta": (0.6, np.nan)}, NotADistribution, "non-finite"),
    "channel-matrix-nan": ({"channel_matrix": ((0.7, 0.3), (np.nan, 0.8))}, NotADistribution,
                           "channel matrix row 1 has non-finite"),
}


def _unchecked(fields):
    """A ModelParams of these fields that skips ``__post_init__``'s check."""
    raw = object.__new__(ModelParams)
    for name, value in fields.items():
        object.__setattr__(raw, name, value)
    return raw


@pytest.mark.parametrize("fields,error,message", REFUSED_PARAMS.values(),
                         ids=REFUSED_PARAMS.keys())
def test_refused_params(sec4, fields, error, message):
    # the raw constructor and dataclasses.replace raise the type and message that
    # validate_params gives on the same fields
    every = {**dataclasses.asdict(sec4), **fields}
    with pytest.raises(error, match=message) as checked:
        model.validate_params(_unchecked(every))
    for build in (lambda: ModelParams(**every), lambda: dataclasses.replace(sec4, **fields)):
        with pytest.raises(error, match=message) as refused:
            build()
        assert (type(refused.value), str(refused.value)) == (type(checked.value),
                                                              str(checked.value))


class TestBisect:
    def test_brackets_the_crossing(self):
        lo, hi = model.bisect(lambda x: x * x > 2.0, 0.0, 2.0, 1e-12)
        assert lo * lo <= 2.0 < hi * hi and 0.0 < hi - lo <= 1e-12
        # a predicate that is never True leaves hi where it was
        assert model.bisect(lambda x: False, 0.0, 1.0, 0.25) == (0.75, 1.0)


class TestFiniteSinr:
    def test_no_power_no_rate(self, sec4):
        h = np.ones(10)
        p = np.zeros(10)
        assert oracles.finite_sinr(0, h, p, 10, sec4) == 0.0

    def test_lone_transmitter(self, sec4):
        h = np.array([1.0])
        p = np.array([1.0])
        assert oracles.finite_sinr(0, h, p, 1, sec4) == pytest.approx(1.0)

    def test_symmetric_transmitters_meet_threshold(self, sec4):
        # k users at gain 1 with p = theta*n0 / (1 - theta*(k-1)/N) sit at
        # SINR = theta exactly
        n, k = 10, 3
        p_val = sec4.theta * sec4.n0 / (1.0 - sec4.theta * (k - 1) / n)
        h = np.zeros(n)
        h[:k] = 1.0
        p = np.zeros(n)
        p[:k] = p_val
        for user in range(k):
            assert oracles.finite_sinr(user, h, p, n, sec4) == pytest.approx(
                sec4.theta, abs=1e-15
            )


class TestTypeInvariants:
    def test_measure_validation(self):
        model.validate_measure([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(NotADistribution):
            model.validate_measure([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(NotADistribution):
            model.validate_measure([0.5, 0.5, 0.5, 0.5])
        # every comparison with NaN is False: the range check must fail, not pass
        with pytest.raises(NotADistribution, match="outside"):
            model.validate_measure([np.nan, 0.5, 0.25, 0.25])

    def test_measure_rows_validated_at_once(self):
        rows = np.full((3, 4), 0.25)
        np.testing.assert_array_equal(model.validate_measure(rows), rows)
        rows[1] = [0.5, 0.5, 0.5, 0.5]
        with pytest.raises(NotADistribution, match="sums to 2.0"):
            model.validate_measure(rows)
        rows[2, 0] = np.nan
        with pytest.raises(NotADistribution, match=r"outside \[0, 1\]: \[nan"):
            model.validate_measure(rows)


def _rows_oracle(header, formats, columns):
    """The CSV text written row by row, ``formats[j] % v`` on plain Python values
    joined by commas, split at newlines (a failing comparison then reports the
    first differing line)."""
    rows = zip(*(col.tolist() for col in columns))
    lines = (",".join(fmt % v for fmt, v in zip(formats, row)) + "\n" for row in rows)
    return (header + "\n" + "".join(lines)).split("\n")


class TestWriteCsv:
    SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0, -2.5e10, 5e-324])

    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097])
    def test_matches_row_by_row_formatting(self, tmp_path, n_rows):
        # repeats within and across blocks, both zeros, nan and infinities, strided
        # columns and an int64 column under %d; the literal %% is kept as text
        rng = np.random.default_rng(n_rows)
        pool = np.concatenate([self.SPECIAL, rng.normal(size=40)])
        measure = rng.choice(pool, (n_rows, 2))
        columns = (np.arange(n_rows), rng.choice([0, -1, 7, 2**62, -(2**63)], n_rows),
                   *measure.T, rng.choice(pool, n_rows))
        formats = ("%d", "%d", "%.12g", "%.12g%%", "%r")
        model.write_csv(tmp_path / "out.csv", "t,i,x,y,z", formats, columns)
        text = (tmp_path / "out.csv").read_text()
        assert text.split("\n") == _rows_oracle("t,i,x,y,z", formats, columns)
        if n_rows > 1000:
            assert ",-0%," in text and ",0%," in text

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32, np.float16, np.bool_,
                                       np.complex128, object])
    def test_other_widths_match_or_raise(self, tmp_path, dtype):
        column = np.array([0.0, 1.0, -0.0, 2.5, 1.0, 0.0] * 700).astype(dtype)
        path = tmp_path / "out.csv"
        if dtype in (np.complex128, object):  # 16 bytes wide, or references: no view
            with pytest.raises(TypeError):
                model.write_csv(path, "x", ("%s",), (column,))
        else:
            model.write_csv(path, "x", ("%s",), (column,))
            assert path.read_text().split("\n") == _rows_oracle("x", ("%s",), (column,))

    @pytest.mark.parametrize("later", [5000, 4000], ids=["longer", "shorter"])
    def test_unequal_columns_raise(self, tmp_path, later):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="unequal lengths"):
            model.write_csv(path, "a,b", ("%d", "%d"), (np.arange(4096), np.arange(later)))
        assert not path.exists()

    @pytest.mark.parametrize("n_formats", [2, 4], ids=["fewer", "more"])
    def test_needs_one_format_per_column(self, tmp_path, n_formats):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"{n_formats} formats for 3 columns"):
            model.write_csv(path, "a,b,c", ("%d",) * n_formats, (np.arange(3),) * 3)
        assert not path.exists()

    @pytest.mark.parametrize("position", [0, 2])
    def test_a_column_with_no_unsigned_view_raises_before_writing(self, tmp_path, position):
        columns = [np.arange(3.0)] * 3
        columns[position] = np.ones(3, dtype=np.complex128)
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            model.write_csv(path, "a,b,c", ("%s",) * 3, columns)
        assert not path.exists()

    # Rows that repeat the row above after the first column share one formatted tail:
    # each case below breaks a run where a rule that compares less than every bit of
    # every later column, or that loses track of runs at a block edge, would not.

    def _written(self, tmp_path, formats, columns, header="t,a,b,c"):
        """The writer's text, checked line by line against row-by-row formatting."""
        path = tmp_path / "out.csv"
        model.write_csv(path, header, formats, columns)
        text = path.read_text()
        assert text.split("\n") == _rows_oracle(header, formats, columns)
        return text

    def test_a_signed_zero_breaks_a_run_in_the_last_column(self, tmp_path):
        last = np.array([0.0] * 3 + [-0.0] * 3)
        columns = (np.arange(6.0), np.ones(6), np.ones(6), last)
        text = self._written(tmp_path, ("%.12g",) * 4, columns)
        assert text.endswith("2,1,1,0\n3,1,1,-0\n4,1,1,-0\n5,1,1,-0\n")

    def test_a_run_broken_only_in_a_middle_column(self, tmp_path):
        middle = np.array([0.5] * 3 + [0.25] * 3)
        columns = (np.arange(6.0), np.ones(6), middle, np.ones(6))
        text = self._written(tmp_path, ("%.12g",) * 4, columns)
        assert text.endswith("2,1,0.5,1\n3,1,0.25,1\n4,1,0.25,1\n5,1,0.25,1\n")

    def test_nan_and_infinite_rows(self, tmp_path):
        # runs of nan, inf and -inf rows between finite ones; a nan with another
        # payload starts a run of its own and prints the same
        other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        tails = [1.0, np.nan, np.nan, np.inf, -np.inf, 1.0, other_nan, np.nan, -np.inf, 0.0]
        x = np.repeat(tails, 3)
        columns = (np.arange(len(x)), x, x[::-1].copy(), np.full(len(x), np.nan))
        text = self._written(tmp_path, ("%d", "%.12g", "%r", "%.12g"), columns)
        assert {"nan", "inf", "-inf"} <= set(text.replace("\n", ",").split(","))

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_runs_at_block_edges(self, tmp_path, shift):
        # a run that opens 5 rows before the first block edge and crosses it, and a
        # change one row before, at or one row after the second edge
        block = model._CSV_BLOCK
        n_rows = 2 * block + 10
        x = np.arange(n_rows) / 7.0
        x[block - 5 :] = 2.5
        x[2 * block + shift :] = -2.5
        self._written(tmp_path, ("%.17g",) * 3, (np.arange(n_rows) * 0.01, x, -x), "t,a,b")

    @pytest.mark.parametrize("n_columns", [1, 3])
    def test_zero_rows_write_the_header_alone(self, tmp_path, n_columns):
        path = tmp_path / "out.csv"
        model.write_csv(path, "h", ("%d",) * n_columns, (np.zeros(0),) * n_columns)
        assert path.read_text() == "h\n"

    def test_one_column(self, tmp_path):
        # each value then a newline, over two block edges, with repeats and both zeros
        column = np.tile([0.0, 0.0, -0.0, 1.5, np.nan], 2000)
        text = self._written(tmp_path, ("%.12g",), (column,), "x")
        assert text.startswith("x\n0\n0\n-0\n1.5\nnan\n0\n")
