"""Checks of symdisk's command outputs, computed apart from symdisk.

Nothing here imports symdisk: every reference value comes from numpy alone
or from a closed form that the input was built to have.  A failed check
raises :class:`CheckFailed`; a passing one returns quietly.

Tolerances are fixed here, not taken from the program's ``Tolerances``, so a
change to the program's defaults cannot loosen them.
"""

from __future__ import annotations

import numpy as np

NU_TOL = 1e-9          # |nu(program) - nu(reference)|, absolute
EIG_TOL = 1e-7         # spectrum match, relative to max(1, ||F||); a 2x2
                       # Jordan block splits by sqrt(eps) in either solver
POLY_TOL = 1e-9        # defining polynomial vs det, relative to the term sum
KERNEL_TOL = 1e-9      # Gram / Pick moduli, relative to the largest entry
TRACE_TOL = 1e-8       # CSV rows: residual, curve equation, closed-form w
TOL_INNER = 1e-9       # program default of the boundary unitarity bound
TOL_ID = 1e-9          # program default of the inner-defect agreement bound
LEVEL_BAND = 1e-6      # |z| this close to 1 counts as unimodular in the
                       # level-set certificate


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------ numerical radius

def support_values(F: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Re(e^{-i theta} F) for every theta, in one call."""
    e = np.exp(-1j * thetas)[:, None, None]
    H = (e * F + np.conj(e) * F.conj().T) / 2
    return np.linalg.eigvalsh(H)[:, -1]


def numerical_radius_ref(F, n_scan: int = 1024, n_peaks: int = 4,
                         n_zoom: int = 8) -> float:
    """Numerical radius by a stacked eigvalsh scan with zoom refinement.

    Every sampled support value is a true lower bound of nu; the best
    ``n_peaks`` local maxima of the scan are each refined by repeatedly
    resampling 33 points across the bracket around the best sample.
    """
    F = np.asarray(F, dtype=complex)
    if F.size == 0:
        return 0.0
    thetas = 2 * np.pi * np.arange(n_scan) / n_scan
    vals = support_values(F, thetas)
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(is_peak)
    peaks = peaks[np.argsort(vals[peaks])[::-1][:n_peaks]]
    best = float(vals.max())
    for k in peaks:
        center, half = thetas[k], 2 * np.pi / n_scan
        for _ in range(n_zoom):
            local = center + np.linspace(-half, half, 33)
            lv = support_values(F, local)
            j = int(np.argmax(lv))
            best = max(best, float(lv[j]))
            center, half = local[j], half / 16
    return best


def level_set_points(F, r: float) -> np.ndarray:
    """Unimodular z with r an eigenvalue of Re(conj(z) F) (Mengi & Overton).

    r is an eigenvalue of (conj(z) F + z F*)/2 at |z| = 1 exactly when
    z^2 F* - 2 r z I + F is singular.  The quadratic pencil is linearized to
    A - z B and solved through a shift-and-invert standard eigenproblem.
    """
    F = np.asarray(F, dtype=complex)
    d = F.shape[0]
    eye, zero = np.eye(d), np.zeros((d, d))
    A = np.block([[zero, eye], [-F, 2 * r * eye]])
    B = np.block([[eye, zero], [zero, F.conj().T]])
    sigma = 0.3137 + 0.4721j   # any point that is not an eigenvalue
    mu = np.linalg.eigvals(np.linalg.solve(A - sigma * B, B))
    mu = mu[np.abs(mu) > 1e-12]  # mu = 0 is an infinite eigenvalue
    z = sigma + 1.0 / mu
    return z[np.abs(np.abs(z) - 1.0) <= LEVEL_BAND]


def check_numerical_radius(F, nu: float) -> float:
    """nu agrees with the reference, which the level set certifies as the max.

    Also asserts the enclosure rho(F) <= nu <= ||F||_2 and nu >= ||F||_2 / 2.
    Returns the reference value.
    """
    F = np.asarray(F, dtype=complex)
    ref = numerical_radius_ref(F)
    norm2 = float(np.linalg.norm(F, 2))
    rho = float(np.abs(np.linalg.eigvals(F)).max())
    slack = NU_TOL * max(1.0, norm2)
    require(len(level_set_points(F, ref + 10 * slack)) == 0,
            f"reference nu {ref:.15g} is not the maximum: the level set above it "
            "is not empty")
    require(abs(nu - ref) <= slack, f"nu = {nu:.15g}, reference {ref:.15g}")
    require(rho <= nu + slack, f"nu = {nu:.15g} below the spectral radius {rho:.15g}")
    require(nu <= norm2 + slack, f"nu = {nu:.15g} above ||F||_2 = {norm2:.15g}")
    require(nu >= norm2 / 2 - slack, f"nu = {nu:.15g} below ||F||_2/2 = {norm2 / 2:.15g}")
    return ref


# ------------------------------------------------------------ spectra, polynomials

def check_spectrum(F, eigs) -> None:
    """The reported eigenvalues equal np.linalg.eigvals(F) as a multiset."""
    F = np.asarray(F, dtype=complex)
    got = list(np.asarray(eigs, dtype=complex))
    ref = np.linalg.eigvals(F)
    require(len(got) == len(ref), f"{len(got)} eigenvalues reported, {len(ref)} expected")
    tol = EIG_TOL * max(1.0, float(np.linalg.norm(F, 2)))
    for ev in ref:
        j = int(np.argmin([abs(ev - g) for g in got]))
        require(abs(ev - got[j]) <= tol, f"eigenvalue {ev:.12g} is missing")
        got.pop(j)


def check_defining_poly(F, coeffs, rng: np.random.Generator, n_points: int = 8) -> None:
    """sum c[i][j] s^i p^j equals det(F* + p F - s I) at random points."""
    F = np.asarray(F, dtype=complex)
    C = np.asarray(coeffs, dtype=complex)
    d = F.shape[0]
    i = np.arange(C.shape[0])[:, None]
    j = np.arange(C.shape[1])[None, :]
    for _ in range(n_points):
        s = 2 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        p = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        terms = C * s ** i * p ** j
        det = np.linalg.det(F.conj().T + p * F - s * np.eye(d))
        scale = float(np.abs(terms).sum()) + abs(det)
        require(abs(terms.sum() - det) <= POLY_TOL * max(1.0, scale),
                f"defining polynomial misses det at (s, p) = ({s:.6g}, {p:.6g}): "
                f"{terms.sum():.12g} vs {det:.12g}")


def check_classify(F, report: dict, planted: complex | None, n_planted: int,
                   n_slices: int, rng: np.random.Generator) -> int:
    """Every field of a ``classify --out`` report; returns the points classified.

    ``planted`` is the unimodular reducing eigenvalue built into F, or None
    when F was built completely non-unitary.
    """
    F = np.asarray(F, dtype=complex)
    d = F.shape[0]
    check_numerical_radius(F, report["nu"])
    check_spectrum(F, [complex(z["re"], z["im"]) for z in report["spectrum"]])
    expect_cnu = planted is None
    require(report["cnu"] is expect_cnu, f"c.n.u. verdict {report['cnu']}, built {expect_cnu}")
    require(report["distinguished"] is expect_cnu,
            f"distinguished verdict {report['distinguished']}, built {expect_cnu}")
    require(report["strict_pass"] is expect_cnu,
            f"region audit strict {report['strict_pass']}, built {expect_cnu}")
    require(report["r2_free"] is True, "region audit reports R2 hits")
    witnesses = [complex(z["re"], z["im"]) for z in report["witnesses"]]
    if planted is None:
        require(not witnesses, f"witnesses {witnesses} on a c.n.u. input")
    else:
        require(len(witnesses) == n_planted
                and all(abs(w - planted) <= 1e-8 for w in witnesses),
                f"witnesses {witnesses}, planted {n_planted} x {planted:.12g}")
    counts = report["region_counts"]
    require(counts["R2"] == 0, f"{counts['R2']} R2 hits")
    require((counts["R1"] == 0) == expect_cnu, f"{counts['R1']} R1 hits")
    total = sum(counts.values())
    require(total == n_slices * d, f"{total} classified points, expected {n_slices} x {d}")
    check_defining_poly(F, matrix_from_json(report["defining_poly"]), rng)
    return total


# ------------------------------------------------------------ kernels and Pick data

def royal_model_kernel(s, p) -> np.ndarray:
    """Gram of the model kernel of [[0, 2], [0, 0]] at nodes on s^2 = 4p.

    The unit kernel vector at (s, p) spans ker([[-conj s, 2], [2 conj p, -conj s]]),
    i.e. u = (2, conj s) / sqrt(4 + |s|^2), so

        k(x, y) = (4 + s conj(t)) / (|u_x| |u_y| (1 - p conj(q))).
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    n = np.sqrt(4 + np.abs(s) ** 2)
    return (4 + np.outer(s, s.conj())) / (np.outer(n, n) * (1 - np.outer(p, p.conj())))


def sheet_model_kernel(p) -> np.ndarray:
    """Gram of the model kernel of the 2 x 2 zero pencil on s = 0: 1/(1 - p conj q)."""
    p = np.asarray(p, dtype=complex)
    return 1 / (1 - np.outer(p, p.conj()))


def szego_kernel(s, p) -> np.ndarray:
    """Gram of the Szego-type kernel of the symmetrized bidisk."""
    s = np.asarray(s, dtype=complex)[:, None]
    p = np.asarray(p, dtype=complex)[:, None]
    t, q = s.T, p.T
    return 1 / ((1 - p * q.conj()) ** 2 - (s - t.conj() * p) * (t.conj() - s * q.conj()))


def pick_of(gram: np.ndarray, targets) -> np.ndarray:
    w = np.asarray(targets, dtype=complex)
    return (1 - np.outer(w, w.conj())) * gram


def matrix_from_json(obj) -> np.ndarray:
    """A ``{"rows": [[{"re", "im"}, ...], ...]}`` matrix as an array."""
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in obj["rows"]])


def check_pick(report: dict, gram_ref: np.ndarray, targets, extremal: bool) -> None:
    """A ``pick --out`` report against the closed-form Gram of its kernel.

    Moduli are compared: the phase of each kernel vector is a convention of
    the program, and changes the Gram only by a diagonal unitary similarity.
    """
    pick_ref = pick_of(gram_ref, targets)
    for name, got, ref in (("gram", matrix_from_json(report["gram"]), gram_ref),
                           ("pick matrix", matrix_from_json(report["pick_matrix"]), pick_ref)):
        scale = float(np.abs(ref).max())
        err = float(np.abs(np.abs(got) - np.abs(ref)).max())
        require(err <= KERNEL_TOL * max(1.0, scale), f"{name} moduli off by {err:.3e}")
    lam = float(np.linalg.eigvalsh(pick_ref)[0])
    scale = max(1.0, float(np.linalg.norm(pick_ref)))
    require(abs(report["min_eigenvalue"] - lam) <= KERNEL_TOL * scale,
            f"min eigenvalue {report['min_eigenvalue']:.6e}, reference {lam:.6e}")
    require(report["admissibility"]["passed"] is True,
            f"admissibility audit failed: {report['admissibility']['failures']}")
    if extremal:
        require(report["gamma"] is not None, "extremal datum reported without a null vector")
    else:
        require(lam > 1e-6 * scale, "benchmark input is not strictly non-extremal")
        require(report["gamma"] is None, "non-extremal datum reported as active")


def check_trace_rows(csv_text: str, curve: str, omega: complex, grid_n: int,
                     grid_radius: float, block_dim: int) -> int:
    """Every ``trace`` CSV row lies on the curve and carries the closed form.

    ``curve`` is "royal" (s^2 = 4p, w = -omega s/2) or "sheet" (s = 0,
    w = omega p).  Every grid slice contributes ``block_dim`` rows.  Returns
    the row count.
    """
    lines = csv_text.strip().split("\n")
    require(lines[0] == "re_s,im_s,re_p,im_p,re_w,im_w,residual,sheet_flag",
            f"unexpected CSV header {lines[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(data.shape == (grid_n * block_dim, 8),
            f"{data.shape[0]} rows, expected {grid_n} x {block_dim}")
    s = data[:, 0] + 1j * data[:, 1]
    p = data[:, 2] + 1j * data[:, 3]
    w = data[:, 4] + 1j * data[:, 5]
    require(bool(np.all(data[:, 7] == 1)), "a row has sheet_flag 0")
    require(float(data[:, 6].max()) <= TRACE_TOL, f"residual {data[:, 6].max():.3e}")
    grid = grid_radius * np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    require(float(np.abs(p[:, None] - grid[None, :]).min(axis=1).max()) <= 1e-14,
            "a row is off the p grid")
    if curve == "royal":
        on_curve = np.abs(s * s - 4 * p)
        expect = -omega * s / 2
    else:
        on_curve = np.abs(s)
        expect = omega * p
    require(float(on_curve.max()) <= TRACE_TOL,
            f"a row is {on_curve.max():.3e} off the {curve} curve")
    err = float(np.abs(w - expect).max())
    require(err <= TRACE_TOL, f"uniqueness value off the closed form by {err:.3e}")
    return data.shape[0]


# ------------------------------------------------------------ realization

def boundary_defect_ref(tau, A, B, C, D, n_per_axis: int = 8) -> float:
    """max ||I - Psi* Psi|| over a midpoint torus grid, in stacked numpy.

    Psi = A + B phi (I - D phi)^{-1} C with phi = (2 tau p - s I)(2 I - s tau)^{-1}.
    """
    h, d = tau.shape[0], A.shape[0]
    t = 2 * np.pi * (np.arange(n_per_axis) + 0.5) / n_per_axis
    z1, z2 = np.meshgrid(np.exp(1j * t), np.exp(1j * t))
    s = (z1 + z2).ravel()[:, None, None]
    p = (z1 * z2).ravel()[:, None, None]
    eye_h = np.eye(h)
    num = 2 * p * tau - s * eye_h
    den = 2 * eye_h - s * tau
    phi = np.swapaxes(np.linalg.solve(np.swapaxes(den, 1, 2), np.swapaxes(num, 1, 2)), 1, 2)
    inner = np.linalg.solve(eye_h - D @ phi, np.broadcast_to(C, (len(s), h, d)))
    psi = A + B @ phi @ inner
    defect = np.eye(d) - np.swapaxes(psi.conj(), 1, 2) @ psi
    return float(np.linalg.norm(defect, 2, axis=(1, 2)).max())


def check_realize(report: dict, defect_ref: float) -> None:
    """The boundary and inner-defect agreements of a ``realize --out`` report."""
    require(defect_ref <= TOL_INNER, f"benchmark model is not inner: {defect_ref:.3e}")
    require(0 <= report["boundary_defect"] <= TOL_INNER,
            f"boundary defect {report['boundary_defect']:.3e}")
    require(0 <= report["inner_defect_agreement"] <= TOL_ID,
            f"inner-defect agreement {report['inner_defect_agreement']:.3e}")
    require(report["passed"] is True, "boundary audit reported FAIL")


def check_verify(report: dict, n_equivalence: int = 200, n_pu: int = 100) -> int:
    """Both sweeps ran their full case counts with no failure."""
    eq, pu = report["equivalence"], report["pu_family"]
    require(eq["cases"] == n_equivalence and eq["failures"] == 0,
            f"equivalence sweep {eq}")
    require(pu["cases"] == n_pu and pu["failures"] == 0, f"pu-family sweep {pu}")
    return eq["cases"] + pu["cases"]
