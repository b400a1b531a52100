import io
import math

import numpy as np
import pytest

from cardcvar.ingest import (
    MomentData,
    ParseError,
    cholesky,
    generate_scenarios,
    parse_orlibrary,
    parse_scenarios,
    write_orlibrary,
    write_scenarios,
)


def random_moments(rng, n):
    mu = rng.normal(size=n)
    B = rng.normal(size=(n, n))
    sigma = B @ B.T + 0.1 * np.eye(n)
    return MomentData(mu=mu, sigma=sigma)


def test_parse_orlibrary_single_asset():
    m = parse_orlibrary("1\n0.5 0.2\n1 1 1.0")
    np.testing.assert_allclose(m.mu, [0.5])
    np.testing.assert_allclose(m.sigma, [[0.04]])


def test_parse_orlibrary_identity():
    m = parse_orlibrary("2\n0 1\n0 1\n1 1 1\n1 2 0\n2 2 1")
    np.testing.assert_allclose(m.sigma, np.eye(2))


def test_parse_orlibrary_scale():
    m = parse_orlibrary("1\n0.5 0.2\n1 1 1.0", scale=100.0)
    np.testing.assert_allclose(m.mu, [50.0])
    np.testing.assert_allclose(m.sigma, [[400.0]])


def test_parse_orlibrary_accepts_crlf_and_blanks():
    m = parse_orlibrary(b"1\r\n\r\n0.5 0.2\r\n1 1 1.0\r\n")
    np.testing.assert_allclose(m.sigma, [[0.04]])


def test_parse_orlibrary_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_orlibrary("1\n0.5\n1 1 1.0")
    with pytest.raises(ParseError, match="line 3"):
        parse_orlibrary("1\n0.5 0.2\n1 1 oops")
    with pytest.raises(ParseError, match="line 3"):
        parse_orlibrary("1\n0.5 0.2\n1 1 1.5")
    with pytest.raises(ParseError, match="line 4"):
        parse_orlibrary("2\n0 1\n0 1\n9 1 0.5")
    with pytest.raises(ParseError, match=r"missing correlation pair \(1, 2\)"):
        parse_orlibrary("2\n0 1\n0 1\n1 1 1\n2 2 1")


def test_orlibrary_roundtrip():
    rng = np.random.default_rng(21)
    for n in (1, 3, 7):
        m = random_moments(rng, n)
        back = parse_orlibrary(write_orlibrary(m))
        np.testing.assert_allclose(back.mu, m.mu, atol=1e-12)
        np.testing.assert_allclose(back.sigma, m.sigma, atol=1e-12)


def test_cholesky_identity():
    np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_hand_example():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, math.sqrt(2.0)]])


def test_cholesky_semidefinite_repair():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    L = cholesky(sigma)
    assert np.allclose(np.tril(L), L)
    np.testing.assert_allclose(L @ L.T, sigma, atol=1e-6)


def test_cholesky_zero_matrix_exact():
    L = cholesky(np.zeros((3, 3)))
    np.testing.assert_array_equal(L, np.zeros((3, 3)))


def test_cholesky_rejects_indefinite():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_generate_scenarios_zero_noise():
    m = MomentData(mu=[0.3, -0.1], sigma=np.zeros((2, 2)))
    R = generate_scenarios(m, 5, seed=1)
    np.testing.assert_array_equal(R, np.tile([0.3, -0.1], (5, 1)))


def test_generate_scenarios_deterministic():
    rng = np.random.default_rng(5)
    m = random_moments(rng, 4)
    a = generate_scenarios(m, 50, seed=42)
    b = generate_scenarios(m, 50, seed=42)
    np.testing.assert_array_equal(a, b)
    c = generate_scenarios(m, 50, seed=43)
    assert not np.array_equal(a, c)


def test_generate_scenarios_moments_converge():
    m = MomentData(mu=np.zeros(3), sigma=np.eye(3))
    R = generate_scenarios(m, 100_000, seed=7)
    assert R.shape == (100_000, 3)
    assert np.all(np.isfinite(R))
    assert np.max(np.abs(R.mean(axis=0))) < 0.02
    assert np.max(np.abs(R.var(axis=0) - 1.0)) < 0.05


def test_generate_scenarios_covariance_converges():
    rng = np.random.default_rng(9)
    m = random_moments(rng, 4)
    S = 20_000
    R = generate_scenarios(m, S, seed=11)
    emp = np.cov(R.T)
    dist = np.linalg.norm(emp - m.sigma)
    assert dist <= 10.0 * np.linalg.norm(m.sigma) / math.sqrt(S)


def test_parse_scenarios_basic():
    R, p = parse_scenarios("1 2\n0.1 0.2")
    np.testing.assert_allclose(R, [[0.1, 0.2]])
    np.testing.assert_allclose(p, [1.0])
    R, p = parse_scenarios("2 1\n0.1\n-0.2")
    np.testing.assert_allclose(R, [[0.1], [-0.2]])
    np.testing.assert_allclose(p, [0.5, 0.5])


def test_parse_scenarios_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_scenarios("1 2\n0.1")
    with pytest.raises(ParseError, match="line 1"):
        parse_scenarios("1\n0.1")
    with pytest.raises(ParseError):
        parse_scenarios("3 1\n0.1\n0.2")
    with pytest.raises(ParseError, match="line 2"):
        parse_scenarios("1 1\nabc")


def test_parse_scenarios_reads_a_file_as_its_text(tmp_path):
    """A text file is parsed one line at a time, with the results and the
    messages of its text: a wrong row count comes before a malformed row,
    and the first malformed row is the one named; a header too large to
    allocate is a ParseError too."""
    texts = ["2 2\n0.1 0.2\n\n-0.3 0.4\n", "2 1\r\n0.5\r\n0.25",
             "2 2\n1 x\n1 2 3\n", "2 2\n1 2 3\n1 x\n",
             "2 2\n1 x\n1 2\n3 4\n\n", "\n\n", "1 1\n2\n\f3\n",
             f"{10 ** 15} {10 ** 5}\n1\n"]
    for i, text in enumerate(texts):
        path = tmp_path / f"s{i}.txt"
        path.write_bytes(text.encode())
        outcomes = []
        for source in (text, path):
            try:
                if isinstance(source, str):
                    R, _ = parse_scenarios(source)
                else:
                    with open(source) as fh:
                        R, _ = parse_scenarios(fh)
                outcomes.append(R.tolist())
            except ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], text
    with pytest.raises(ParseError, match="line 2: returns must be numeric"):
        parse_scenarios(texts[2])
    with pytest.raises(ParseError, match="line 6: expected 2 scenario rows"):
        parse_scenarios(texts[4])
    with pytest.raises(ParseError, match="line 1: .* do not fit in memory"):
        parse_scenarios(texts[-1])


def test_scenarios_roundtrip():
    """The file holds each value at 17 significant digits, one row per line
    after the 'S N' header, and parses back bit for bit, signed zero and
    subnormals included."""
    rng = np.random.default_rng(31)
    R = rng.normal(size=(6, 3))
    R[0] = [-0.0, 1e-300, 5e-324]
    R[1, 0] = 1.23e8
    out = io.StringIO()
    write_scenarios(R, out)
    text = out.getvalue()
    assert text == "6 3\n" + "".join(
        " ".join(f"{v:.17g}" for v in row) + "\n" for row in R)
    back, p = parse_scenarios(text)
    np.testing.assert_array_equal(back, R)
    assert np.array_equal(np.signbit(back), np.signbit(R))
    np.testing.assert_allclose(p, np.full(6, 1.0 / 6.0))


def test_moment_data_validation():
    with pytest.raises(ValueError):
        MomentData(mu=[0.0, 0.0], sigma=np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        MomentData(mu=[0.0], sigma=[[-1.0]])
    with pytest.raises(ValueError):
        MomentData(mu=[0.0, 1.0], sigma=np.eye(3))
