"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts.
Expected values are either closed-form or frozen from independent oracles;
none are fitted to the implementation.
"""

import itertools
import time

import numpy as np
import pytest

from ugspectral.core import UGInstance, characteristic_vector, shift_image, value
from ugspectral.generators import (
    KVSpec,
    cayley_matrix,
    kv_eigenspace_dimension,
    kv_instance,
    kv_label_extended,
    kv_spectrum,
    kv_vertex_bijection,
    perturb,
    planted_instance,
    planted_regular_instance,
    PlantedSpec,
    walsh_hadamard_spectrum,
)
from ugspectral.label_extended import (
    build_label_extended,
    build_laplacian,
    constraint_graph_adjacency,
)
from ugspectral.linalg import Eigenspace, eigendecompose, project_split, select_eigenspace
from ugspectral.maxlin import (
    MaxLinInstance,
    MaxLinParams,
    block_norm_vector,
    lift_eigenbasis,
    sin_theta_report,
    solve_maxlin,
)
from ugspectral.oracle import brute_force
from ugspectral.recover import (
    SolveParams,
    _lattice_chunks,
    _net_radius2,
    closeness_diagnostic,
    enumerate_net,
    net_size,
    read_off_assignment,
    recover_solution,
)

from conftest import complete_skeleton


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_orthonormal(ambient, dim, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((ambient, dim)))
    return Eigenspace(ambient, Q[:, :dim], np.zeros(dim), 0.0, "adjacency-high")


def test_criterion_01_assignment_eigenvector_identity(capsys):
    """Perfect labelings are eigenvectors: M y = d y and L_M y = 0,
    residual <= 1e-9 * d, over 20 seeded planted regular instances."""
    worst = 0.0
    cases = [(12, 3, 2), (16, 3, 3), (20, 4, 3), (24, 3, 4), (18, 4, 4)]
    count = 0
    for (n, d, k), fam in itertools.product(
        cases, ("general-permutation", "maxlin")
    ):
        for seed in (count, count + 1000):
            inst, planted, _ = planted_regular_instance(
                n, d, k, seed=seed, constraint_family=fam
            )
            y = characteristic_vector(planted, k)
            adj = build_label_extended(inst)
            lap = build_laplacian(inst)
            deg = adj.d_avg
            r1 = np.linalg.norm(adj.matrix @ y - deg * y) / deg
            r2 = np.linalg.norm(lap.matrix @ y) / deg
            worst = max(worst, r1, r2)
            count += 1
    ok = count == 20 and worst <= 1e-9
    announce(capsys, 1, ok,
             f"eigenvector identity on {count} instances, worst residual/d "
             f"{worst:.2e} <= 1e-09")


def test_criterion_02_closeness_bound(capsys):
    """beta <= sqrt(2*eps'/gamma) + 1e-8 for the planted characteristic
    vector against W, both modes, eps in {0.01, 0.02, 0.05}, gamma = 0.5."""
    gamma = 0.5
    worst_margin = -np.inf
    checks = 0
    for eps in (0.01, 0.02, 0.05):
        # adjacency mode needs a regular skeleton
        inst, planted, _ = planted_regular_instance(20, 4, 3, seed=5)
        pert = perturb(inst, planted, eps, seed=9)
        realized = 1 - value(pert, planted)
        _, beta = closeness_diagnostic(
            pert, planted, SolveParams(eps, gamma, mode="adjacency")
        )
        worst_margin = max(worst_margin, beta - np.sqrt(2 * realized / gamma))
        checks += 1
        # laplacian mode exercised on a non-regular skeleton
        rng = np.random.default_rng(17)
        skel = [(u, v) for u in range(15) for v in range(u + 1, 15)
                if rng.random() < 0.3]
        inst2, planted2 = planted_instance(
            PlantedSpec(15, 3, skel, rng.integers(0, 3, 15), seed=2)
        )
        pert2 = perturb(inst2, planted2, eps, seed=3)
        realized2 = 1 - value(pert2, planted2)
        _, beta2 = closeness_diagnostic(
            pert2, planted2, SolveParams(eps, gamma, mode="laplacian")
        )
        worst_margin = max(worst_margin, beta2 - np.sqrt(2 * realized2 / gamma))
        checks += 1
    ok = checks == 6 and worst_margin <= 1e-8
    announce(capsys, 2, ok,
             f"closeness bound, {checks} runs (both modes), worst "
             f"beta - sqrt(2*eps'/gamma) = {worst_margin:.2e} <= 1e-08")


def test_criterion_03_argmax_stability(capsys):
    """x = alpha*y~ + beta*y_perp agrees with L on >= (1 - 2 beta^2/alpha^2)*n
    vertices, exactly counted, for 100 seeded adversarial trials."""
    n, k = 30, 4
    failures = 0
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        L = rng.integers(0, k, size=n)
        y = characteristic_vector(L, k, normalized=True)
        # adversarial direction: push weight off the true label on a random
        # subset of vertices, toward a wrong label
        raw = np.zeros(n * k)
        flip = rng.choice(n, size=rng.integers(1, n // 2 + 1), replace=False)
        for u in flip:
            wrong = (L[u] + 1 + rng.integers(0, k - 1)) % k
            raw[u * k + L[u]] = -1.0
            raw[u * k + wrong] = 1.0
        raw += 0.01 * rng.standard_normal(n * k)
        raw -= (raw @ y) * y
        y_perp = raw / np.linalg.norm(raw)
        alpha = rng.uniform(0.8, 1.0)
        beta = rng.uniform(0.05, 0.45) * alpha
        x = alpha * y + beta * y_perp
        agree = int(np.sum(read_off_assignment(x, n, k) == L))
        if agree < (1 - 2 * beta**2 / alpha**2) * n:
            failures += 1
    ok = failures == 0
    announce(capsys, 3, ok,
             f"argmax stability, 100 adversarial trials, {failures} bound "
             f"violations ({time.perf_counter() - t0:.2f}s)")


def test_criterion_04_net_covering_and_size(capsys):
    """(a) nearest net point within half*sqrt(2*eps/gamma) for 1000 random
    unit vectors at dim 4 (and 2, 3); (b) enumerated counts match an
    independent brute count for dim <= 3."""
    eps, gamma = 0.01, 0.5
    bound = 0.5 * np.sqrt(2 * eps / gamma)
    worst = 0.0
    for dim, nvec in ((2, 1000), (3, 1000), (4, 1000)):
        step = float(np.sqrt(2 * eps / (gamma * dim)))
        basis = random_orthonormal(dim + 3, dim, seed=dim)
        pts = np.concatenate(list(enumerate_net(basis, step)))
        rng = np.random.default_rng(100 + dim)
        C = rng.standard_normal((nvec, dim))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        V = C @ basis.basis.T
        d2 = (V**2).sum(1)[:, None] - 2 * V @ pts.T + (pts**2).sum(1)[None, :]
        worst = max(worst, float(np.sqrt(np.maximum(d2.min(1), 0)).max()))
    cover_ok = worst <= bound + 1e-12

    count_ok = True
    for dim, step in ((1, 0.3), (2, 0.45), (3, 0.4)):
        r2 = _net_radius2(dim, step)
        m = int(np.floor(np.sqrt(r2)))
        brute = sum(
            1
            for z in itertools.product(range(-m, m + 1), repeat=dim)
            if sum(c * c for c in z) <= r2
        )
        enumerated = sum(len(Z) for Z in _lattice_chunks(dim, step, 8192))
        count_ok &= brute == net_size(dim, step) == enumerated
    ok = cover_ok and count_ok
    announce(capsys, 4, ok,
             f"net covering worst distance {worst:.4f} <= {bound:.4f}; "
             f"counts match brute enumeration: {count_ok}")


def test_criterion_05_end_to_end_recovery(capsys):
    """10 seeded perturbed planted 3-regular expander instances (n=20,
    k in {3,4}, eps=0.01, gamma=0.5, max_dim=8): best >= 0.9, YES, and
    best >= value(planted) - 0.05.  Solved through the group-difference
    front end, whose search space fits the pinned max_dim."""
    t0 = time.perf_counter()
    bad = []
    for seed in range(10):
        k = 3 if seed % 2 else 4
        inst, planted, _ = planted_regular_instance(
            20, 3, k, seed=seed, constraint_family="maxlin"
        )
        pert = perturb(inst, planted, 0.01, seed=seed + 100,
                       constraint_family="maxlin")
        rep = solve_maxlin(
            MaxLinInstance.from_instance(pert),
            MaxLinParams(epsilon=0.01, gamma=0.5, max_dim=8),
        )
        if not (
            rep.best_value >= 0.9
            and rep.decision == "YES"
            and rep.best_value >= value(pert, planted) - 0.05
            and rep.dim_W <= 8
        ):
            bad.append(seed)
    ok = not bad
    announce(capsys, 5, ok,
             f"end-to-end recovery on 10 seeds, failures {bad} "
             f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_06_oracle_dominance(capsys):
    """Solver never beats the exact oracle; on perfect planted instances
    both are exactly 1.0."""
    perfect_ok = True
    dominance_ok = True
    for n, k, seed in ((6, 3, 0), (5, 4, 1)):
        rng = np.random.default_rng(seed)
        inst, planted = planted_instance(
            PlantedSpec(n, k, complete_skeleton(n), rng.integers(0, k, n),
                        "maxlin", seed)
        )
        rep = solve_maxlin(MaxLinInstance.from_instance(inst),
                           MaxLinParams(0.01, 0.5, max_dim=8))
        bf = brute_force(inst)
        perfect_ok &= rep.best_value == 1.0 and bf.best_value == 1.0
        pert = perturb(inst, planted, 0.05, seed=seed + 7,
                       constraint_family="maxlin")
        rep2 = solve_maxlin(MaxLinInstance.from_instance(pert),
                            MaxLinParams(0.01, 0.5, max_dim=8))
        bf2 = brute_force(pert)
        dominance_ok &= rep2.best_value <= bf2.best_value + 1e-12
    # the 4-label, 4-vertex gap instance: 4^4 labelings, solver vs oracle
    spec = KVSpec(2, 0.25)
    kv = kv_instance(spec)
    rep = recover_solution(
        kv, SolveParams(0.01, 1.0, max_dim=16, net_step_override=2.5)
    )
    bf = brute_force(kv)
    dominance_ok &= rep.best_value <= bf.best_value + 1e-12
    ok = perfect_ok and dominance_ok
    announce(capsys, 6, ok,
             f"oracle dominance (perfect both 1.0: {perfect_ok}; "
             f"never above oracle: {dominance_ok})")


def test_criterion_07_kv_spectrum_closed_form(capsys):
    """n=8 perturbed-hypercube spectrum matches n(1-2eps)^r with
    multiplicity C(8, r), eps in {0.1, 0.25}, multiset tolerance 1e-8."""
    worst = 0.0
    mult_ok = True
    for eps in (0.1, 0.25):
        spec = KVSpec(3, eps)
        M = kv_label_extended(spec)
        vals, _ = eigendecompose(M)
        expect = np.sort(
            np.repeat([lam for lam, _ in kv_spectrum(spec)],
                      [m for _, m in kv_spectrum(spec)])
        )[::-1]
        worst = max(worst, float(np.abs(np.sort(vals)[::-1] - expect).max()))
        for lam, mult in kv_spectrum(spec):
            mult_ok &= int(np.sum(np.abs(vals - lam) <= 1e-6)) == mult
    ok = worst <= 1e-8 and mult_ok
    announce(capsys, 7, ok,
             f"closed-form spectrum, worst eigenvalue error {worst:.2e} "
             f"<= 1e-08, multiplicities C(8,r) exact: {mult_ok}")


def test_criterion_08_kv_construction_equivalence(capsys):
    """The edge-built label-extended matrix equals the closed-form
    perturbed-hypercube matrix entrywise to 1e-12 under the coset-label
    bijection, kappa=2, eps in {0.1, 0.25}."""
    worst = 0.0
    for eps in (0.1, 0.25):
        spec = KVSpec(2, eps)
        inst = kv_instance(spec)
        M = build_label_extended(inst).matrix * inst.scale
        closed = kv_label_extended(spec)
        b = kv_vertex_bijection(spec)
        worst = max(worst, float(np.abs(M - closed[np.ix_(b, b)]).max()))
    ok = worst <= 1e-12
    announce(capsys, 8, ok,
             f"construction equivalence, max entrywise diff {worst:.2e} "
             f"<= 1e-12")


def test_criterion_09_kv_unsatisfiability_decision(capsys):
    """The gap instance is decided NO.  kappa=2: exact optimum frozen from
    the brute-force oracle; kappa=3: the 256-dimensional run completes at
    max_dim = the closed-form eigenspace dimension."""
    t0 = time.perf_counter()
    spec2 = KVSpec(2, 0.25)
    kv2 = kv_instance(spec2)
    bf = brute_force(kv2)
    # frozen 2026-08: shift-reduced enumeration over (Z_2)^2, agrees with
    # the full 4^4 scan
    frozen_opt = 0.6181318681318682
    opt_ok = bf.best_value == pytest.approx(frozen_opt, abs=1e-12)
    rep2 = recover_solution(
        kv2, SolveParams(0.01, 1.0, max_dim=16, net_step_override=2.5)
    )
    no2 = rep2.decision == "NO"

    spec3 = KVSpec(3, 0.25)
    gamma3 = 0.52
    dim3 = kv_eigenspace_dimension(spec3, gamma3)
    rep3 = recover_solution(
        kv_instance(spec3),
        SolveParams(0.01, gamma3, max_dim=dim3, net_step_override=0.9),
    )
    no3 = rep3.decision == "NO" and rep3.dim_W == dim3
    ok = opt_ok and no2 and no3
    announce(capsys, 9, ok,
             f"gap instance decided NO (kappa=2 opt {bf.best_value:.6f} < "
             f"threshold {rep2.yes_threshold:.4f}; asymptotic reference "
             f"1/n^eps = {4 ** -0.25:.4f}; kappa=3 dim_W={rep3.dim_W}, best "
             f"{rep3.best_value:.4f} < {rep3.yes_threshold:.4f}; "
             f"{time.perf_counter() - t0:.1f}s)")


def test_criterion_10_maxlin_diagnostics(capsys):
    """(i) lifted eigenbasis residuals <= 1e-9*d; (ii) sin-theta
    beta_measured <= beta_bound + 1e-8; (iii) block-norm |b| <=
    sqrt(theta/gamma) + 1e-8; (iv) dim(W at (1-theta)d) <= k*dim(S at
    (1-gamma)d); 10 seeded Z_3 instances, single-edge and eps=0.02
    perturbations."""
    t0 = time.perf_counter()
    gamma = 0.5
    theta = MaxLinParams(0.02, gamma).resolved_theta()
    worst_res = 0.0
    fails = {"sin_theta": 0, "r_matrix": 0, "block_norm": 0, "dim": 0}
    for seed in range(10):
        inst, planted, _ = planted_regular_instance(
            18, 4, 3, seed=seed, constraint_family="maxlin"
        )
        ml = MaxLinInstance.from_instance(inst)
        d = inst.average_degree
        A = constraint_graph_adjacency(inst)
        phi = select_eigenspace(A, -1e18, "adjacency-high")
        M0 = build_label_extended(inst).matrix
        lifted = lift_eigenbasis(phi, ml, planted)
        for s in range(phi.dim):
            for i in range(3):
                v = lifted[s * 3 + i]
                worst_res = max(
                    worst_res,
                    np.linalg.norm(M0 @ v - phi.eigenvalues[s] * v) / d,
                )
        S = select_eigenspace(A, (1 - gamma) * d, "adjacency-high")
        perm = inst.perm.copy()
        perm[0] = shift_image(np.arange(3), ml.shifts[0] + 1, 3)
        single = UGInstance.from_arrays(inst.n, inst.k, inst.u, inst.v, inst.w, perm, inst.scale)
        eps02 = perturb(inst, planted, 0.02, seed=seed + 50,
                        constraint_family="maxlin")
        for pert in (single, eps02):
            mlp = MaxLinInstance.from_instance(pert)
            M = build_label_extended(pert)
            Mvals, Mvecs = eigendecompose(M.matrix)
            for j in np.where(Mvals >= (1 - theta) * d)[0]:
                rep = sin_theta_report(mlp, ml, Mvecs[:, j], gamma)
                if rep.lam > rep.lambda_s:
                    if rep.beta_measured > rep.beta_bound + 1e-8:
                        fails["sin_theta"] += 1
                    if rep.numerator > rep.r_matrix_bound + 1e-8:
                        fails["r_matrix"] += 1
                wb = block_norm_vector(Mvecs[:, j], inst.n, inst.k)
                if project_split(wb, S).beta > np.sqrt(theta / gamma) + 1e-8:
                    fails["block_norm"] += 1
            W = select_eigenspace(M.matrix, (1 - theta) * d, "adjacency-high")
            if W.dim > inst.k * S.dim:
                fails["dim"] += 1
    ok = worst_res <= 1e-9 and not any(fails.values())
    announce(capsys, 10, ok,
             f"group-difference diagnostics, worst lift residual/d "
             f"{worst_res:.2e}, violations {fails} "
             f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_walsh_hadamard(capsys):
    """Transform values equal the dense Cayley spectrum as a multiset,
    1e-9: the 4-cycle plus two random weight functions on F_2^4."""
    worst = 0.0
    cases = [np.array([0.0, 1.0, 1.0, 0.0])]  # 4-cycle over F_2^2
    rng = np.random.default_rng(11)
    for _ in range(2):
        f = np.abs(rng.standard_normal(16))
        f[0] = 0.0
        cases.append(f)
    for f in cases:
        fwht = np.sort(walsh_hadamard_spectrum(f).values)
        dense = np.sort(np.linalg.eigvalsh(cayley_matrix(f)))
        worst = max(worst, float(np.abs(fwht - dense).max()))
    # the 4-cycle's spectrum is {2, 0, 0, -2} in closed form
    four_cycle = sorted(walsh_hadamard_spectrum(cases[0]).values)
    closed_ok = np.allclose(four_cycle, [-2.0, 0.0, 0.0, 2.0])
    ok = worst <= 1e-9 and closed_ok
    announce(capsys, 11, ok,
             f"transform vs dense spectrum, worst diff {worst:.2e} <= 1e-09; "
             f"4-cycle closed form: {closed_ok}")
