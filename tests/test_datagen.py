import numpy as np
import pytest

from ladlasso.brute import solve_brute
from ladlasso.datagen import (
    GenSpec,
    generate,
    read_dataset_csv,
    read_metadata,
    write_dataset_csv,
    write_metadata,
)
from ladlasso.errors import InvalidInputError
from ladlasso.lp import solve_lp
from ladlasso.model import ProblemSpec
from ladlasso.rng import Pcg32

# first outputs of the reference 32-bit generator for seed 42, stream 54
PCG32_REFERENCE = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_pcg32_matches_reference_sequence():
    rng = Pcg32(42, stream=54)
    assert [rng._next_u32() for _ in range(6)] == PCG32_REFERENCE


def test_pcg32_matches_independent_reimplementation():
    mask = (1 << 64) - 1
    state = 0
    inc = ((54 << 1) | 1) & mask

    def step():
        nonlocal state
        old = state
        state = (old * 6364136223846793005 + inc) & mask
        xs = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xs >> rot) | (xs << ((-rot) & 31))) & 0xFFFFFFFF

    step()
    state = (state + 42) & mask
    step()
    expected = [step() for _ in range(200)]
    rng = Pcg32(42, stream=54)
    assert [rng._next_u32() for _ in range(200)] == expected


def test_bounded_draws_are_in_range():
    rng = Pcg32(7)
    draws = [rng.below(5) for _ in range(500)]
    assert set(draws) <= {0, 1, 2, 3, 4}
    assert len(set(draws)) == 5


def test_normal_moments_are_sane():
    rng = Pcg32(123)
    z = np.array(rng.normals(4000))
    assert abs(z.mean()) < 0.08
    assert abs(z.std() - 1.0) < 0.05


def test_same_seed_is_bit_identical():
    a_data, a_beta = generate(GenSpec(m=9, d=3, seed=42))
    b_data, b_beta = generate(GenSpec(m=9, d=3, seed=42))
    assert np.array_equal(a_data.x, b_data.x)
    assert np.array_equal(a_data.y, b_data.y)
    assert np.array_equal(a_beta.beta, b_beta.beta)
    c_data, _ = generate(GenSpec(m=9, d=3, seed=43))
    assert not np.array_equal(a_data.x, c_data.x)


def test_noiseless_response_is_exact_and_recoverable():
    data, beta = generate(GenSpec(m=8, d=2, noise_sigma=0.0, seed=5))
    assert np.array_equal(data.y, data.x @ beta.beta)
    spec = ProblemSpec(data, 0.0)  # floor applies
    res = solve_brute(spec)
    assert np.abs(res.beta.beta - beta.beta).max() < 1e-6


def test_informative_axis_count():
    _, beta = generate(GenSpec(m=6, d=3, n_informative=1, seed=2))
    assert int(np.count_nonzero(beta.beta)) == 1
    assert beta.beta[0] != 0.0


def test_outliers_inflate_chosen_rows():
    g = GenSpec(m=10, d=1, noise_sigma=1.0, outlier_fraction=0.3, outlier_scale=10.0, seed=9)
    assert g.n_outliers == 3
    data, beta = generate(g)
    plain, _ = generate(
        GenSpec(m=10, d=1, noise_sigma=1.0, outlier_fraction=0.0, seed=9)
    )
    noise = data.y - data.x @ beta.beta
    base = plain.y - plain.x @ beta.beta
    ratio = np.abs(noise) / np.maximum(np.abs(base), 1e-300)
    assert int(np.sum(np.isclose(ratio, 10.0))) == 3


def test_supplied_coefficients_are_used():
    data, beta = generate(GenSpec(m=5, d=2, true_coefficients=(1.5, -2.0), noise_sigma=0.0, seed=3))
    assert beta.beta.tolist() == [1.5, -2.0]
    assert np.array_equal(data.y, data.x @ np.array([1.5, -2.0]))


def test_genspec_validation():
    with pytest.raises(InvalidInputError):
        GenSpec(m=0, d=1)
    with pytest.raises(InvalidInputError):
        GenSpec(m=3, d=2, n_informative=3)
    with pytest.raises(InvalidInputError):
        GenSpec(m=3, d=2, outlier_fraction=1.0)
    with pytest.raises(InvalidInputError):
        GenSpec(m=3, d=2, true_coefficients=(1.0,))


def test_csv_round_trip_is_exact(tmp_path):
    data, beta = generate(GenSpec(m=7, d=3, seed=11))
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    again = read_dataset_csv(path)
    assert np.array_equal(again.x, data.x)
    assert np.array_equal(again.y, data.y)

    g = GenSpec(m=7, d=3, seed=11)
    write_metadata(path, g, beta)
    meta = read_metadata(path)
    assert meta["seed"] == 11
    assert meta["true_beta"] == [float(v) for v in beta.beta]


def test_csv_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(InvalidInputError, match="row 3, column y"):
        read_dataset_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text("x1,y\n1.0\n")
    with pytest.raises(InvalidInputError, match="row 2"):
        read_dataset_csv(short)
    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(InvalidInputError, match="header"):
        read_dataset_csv(wrong_header)


def test_non_ascii_csv_names_its_first_non_ascii_byte(tmp_path):
    # a UTF-8 byte order mark, as spreadsheet exports write, then an accented
    # cell past the first chunk the text decoder reads
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,y\n1,2\n3,4.5\n")
    with pytest.raises(InvalidInputError, match=r"data\.csv: byte 0 \(0xef\) is not ASCII"):
        read_dataset_csv(path)
    body = b"x1,y\n" + b"1.0,2.0\n" * 3000
    path.write_bytes(body + "1.0,\u00e9\n".encode())
    with pytest.raises(InvalidInputError, match=rf"byte {len(body) + 4} \(0xc3\) is not ASCII"):
        read_dataset_csv(path)


def test_csv_body_is_read_as_float_reads_each_cell(tmp_path, recwarn):
    path = tmp_path / "data.csv"
    # blank lines are skipped; what float reads but numpy does not still reads
    path.write_text("x1,y\n1.0,2.0\n\n1_0,-3e2\n\n")
    data = read_dataset_csv(path)
    assert data.x.tolist() == [[1.0], [10.0]] and data.y.tolist() == [2.0, -300.0]
    # numpy reads one short row as one column: still the row's diagnostic
    path.write_text("x1,y\n1.0\n")
    with pytest.raises(InvalidInputError, match="row 2 has 1 fields, header has 2"):
        read_dataset_csv(path)
    # '#' opens no comment
    path.write_text("x1,y\n1.0,2.0\n#3.0,4.0\n")
    with pytest.raises(InvalidInputError, match="row 3, column x1: cannot parse '#3.0'"):
        read_dataset_csv(path)
    path.write_text("x1,y\n1.0,2.0 # note\n")
    with pytest.raises(InvalidInputError, match="row 2, column y"):
        read_dataset_csv(path)
    # a header alone, or with blank lines, has no data rows, and numpy is not
    # asked to read it (it would warn)
    for text in ("x1,y\n", "x1,y\n\n\n"):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="no data rows"):
            read_dataset_csv(path)
    assert not recwarn.list


def test_shrinkage_path_is_monotone():
    data, _ = generate(GenSpec(m=12, d=5, n_informative=2, noise_sigma=0.0, seed=17))
    lam_top = float(np.abs(data.x).sum(axis=0).max()) * 1.05
    lambdas = np.geomspace(1e-4 * lam_top, lam_top, 10)
    counts = []
    for lam in lambdas:
        res = solve_lp(ProblemSpec(data, float(lam)))
        counts.append(int(np.sum(np.abs(res.beta.beta) > 1e-6)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0
    assert counts[0] >= 2
