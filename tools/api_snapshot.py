"""Print the repr of a fixed list of qgame API results.

Run it on two trees and diff the outputs to check that a change leaves the
results of the search, best-response, certificate, Bayesian and mixed-payoff
functions, the protocol's final amplitudes, the qutrit J|00>, the Bell and
partial states, the Bayesian type tables, the identity entangler's spec, the
bytes of J for the identity, J1(0), J1(pi/2) and J2(pi/2) entanglers, the
structural predicates (product states, tensor products, commutants,
unitarity, classical commensurability), the mesh's payoff classes and the
refusal of bad seeds and NaN Bloch amplitudes as they were, to the last bit
of every float:

    python tools/api_snapshot.py > after.txt
    python tools/api_snapshot.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The first line names the host's numpy, BLAS and OpenBLAS core, since the
last digits of some results depend on the BLAS kernel. Every call runs in
this process, in the order listed, and takes a few seconds in all. A call
that raises ValueError or TypeError prints the error's repr, so a call that
one tree refuses with either still prints.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys


def _random_unitary(np, seed):
    """A fixed 4x4 unitary: QR of a seeded complex Gaussian matrix, phases fixed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def calls(qgame, np):
    """(label, thunk) pairs, in the order they run."""
    custom = qgame.GameTable("custom", ((0.5, -10.0), (-1.5, -5.0)), ((-2.0, -1.5), (-10.0, -4.75)))
    games = (qgame.DA_BROTHER, qgame.PRISONER_DILEMMA, custom)
    specs = [qgame.EntanglerSpec("j1", b) for b in (0.0, 0.5, 1.2, math.pi / 2)]
    specs += [qgame.EntanglerSpec("j2", b) for b in (0.7, math.pi / 2)]
    specs.append(qgame.EntanglerSpec("identity"))
    for game in games:
        for spec in specs:
            # (5, 9, 17) has 194 payoff classes, more than one kernel row block
            for mesh in (qgame.MeshSpec(3, 5, 5), qgame.MeshSpec(5, 9, 9), qgame.MeshSpec(5, 9, 17)):
                for use_matrix in (False, True):
                    yield (
                        f"find_pure_ne {game.name} {spec} {mesh} use_matrix={use_matrix}",
                        lambda g=game, s=spec, m=mesh, d=use_matrix: qgame.find_pure_ne(g, s, m, d),
                    )
    unitary = _random_unitary(np, 7)
    for game in games:
        for spec_or_j, name in ((specs[2], "j1(1.2)"), (specs[4], "j2(0.7)"), (unitary, "unitary(seed 7)")):
            for responder in (1, 2):
                yield (
                    f"best_response_table {game.name} {name} responder={responder}",
                    lambda g=game, s=spec_or_j, r=responder: qgame.best_response_table(
                        g, s, qgame.MeshSpec(5, 9, 17), r
                    ),
                )
    # (9, 13, 13) has 506 payoff classes, four kernel row blocks
    for spec_or_j, name in ((specs[4], "j2(0.7)"), (unitary, "unitary(seed 7)")):
        for responder in (1, 2):
            yield (
                f"best_response_table da_brother {name} responder={responder} (9, 13, 13)",
                lambda s=spec_or_j, r=responder: qgame.best_response_table(
                    qgame.DA_BROTHER, s, qgame.MeshSpec(9, 13, 13), r
                ),
            )
    betas = [k * math.pi / 18 for k in range(10)]
    for game in games[:2]:
        for family in ("j1", "j2"):
            yield (
                f"sweep_beta {game.name} {family}",
                lambda g=game, f=family: qgame.sweep_beta(g, f, qgame.MeshSpec(5, 9, 9), betas),
            )
    for form in ("psi_plus", "triplet"):
        for game in games:
            for seed in (0, 1):
                yield (
                    f"no_psne_certificate {form} {game.name} seed={seed}",
                    lambda f=form, g=game, s=seed: qgame.no_psne_certificate(f, 300, g, s),
                )
    rng = np.random.default_rng(17)

    def integer_table():
        return tuple(map(tuple, rng.integers(-10, 11, (2, 2)).tolist()))

    integer_games = [qgame.GameTable(f"integer_{t}", integer_table(), integer_table()) for t in range(4)]
    for form in ("psi_plus", "triplet"):
        for game in integer_games:
            for seed in (0, 1, 2):
                yield (
                    f"no_psne_certificate {form} {game} seed={seed}",
                    lambda f=form, g=game, s=seed: qgame.no_psne_certificate(f, 300, g, s),
                )
    # seeds pass the number rule: integers, numpy integers too, and non-negative
    for seed in (3, np.int64(3), 1.5, True, "3", -1):
        yield (
            f"no_psne_certificate psi_plus prisoner_dilemma seed={seed!r}",
            lambda s=seed: qgame.no_psne_certificate("psi_plus", 40, seed=s),
        )
    yield "verify.run_all seed=1.5", lambda: importlib.import_module("qgame.verify").run_all(seed=1.5)
    rng = np.random.default_rng(11)
    high = (2 * math.pi, 2 * math.pi, math.pi)
    profiles = [
        qgame.BayesProfile(*(qgame.StrategyAngles(*rng.uniform(0.0, high).tolist()) for _ in range(3)))
        for _ in range(8)
    ]
    # player 1 gains more from mutual silence; player 2's types are the built-in ones
    generous = [
        qgame.GameTable(f"generous_{t.name}", ((3.0, -10.0), (-1.0, -5.0)), t.u2)
        for t in (qgame.bayes.GAME_TYPE_I, qgame.bayes.GAME_TYPE_II)
    ]
    bayes_specs = [qgame.BayesSpec(mu) for mu in (0.0, 0.1, 0.5, 1.0)]
    bayes_specs.append(qgame.BayesSpec(0.3, *generous))
    # a type table whose candidate reply is not its best reply: bayes_ne_check refuses it
    bayes_specs.append(qgame.BayesSpec(0.3, custom, qgame.DA_BROTHER))
    for k, spec in enumerate(bayes_specs):
        for i, prof in enumerate(profiles):
            yield f"bayes_payoffs spec={k} profile={i}", lambda s=spec, p=prof: qgame.bayes_payoffs(s, p)
    for mu in (0.0, 0.1, 1 / 6, 0.5):
        for mesh in (qgame.MeshSpec(5, 9, 11), qgame.MeshSpec(9, 17, 17)):
            yield f"bayes_ne_check mu={mu!r} {mesh}", lambda m=mu, g=mesh: qgame.bayes_ne_check(m, g)
    # the verdict switches in this range of mu, where the margin crosses the tie tolerance
    for k in range(-2, 21):
        for mesh in (qgame.MeshSpec(5, 9, 11), qgame.MeshSpec(9, 17, 17)):
            yield (
                f"bayes_ne_check mu=1/6{k:+d}e-10 {mesh}",
                lambda m=1 / 6 + k * 1e-10, g=mesh: qgame.bayes_ne_check(m, g),
            )
    for k in (4, 5):
        yield (
            f"bayes_ne_check mu=0.3 spec={k}",
            lambda s=bayes_specs[k]: qgame.bayes_ne_check(0.3, qgame.MeshSpec(5, 9, 11), s),
        )
    for mu in (0.1, 0.3, 0.5):
        for mesh in (qgame.MeshSpec(5, 9, 11), qgame.MeshSpec(9, 17, 17)):
            yield (
                f"bayes_ne_check generous mu={mu!r} {mesh}",
                lambda m=mu, g=mesh: qgame.bayes_ne_check(m, g, qgame.BayesSpec(m, *generous)),
            )
    # type II with type I's u2 flips in reply to the identity: refused
    flipper = qgame.GameTable("flipper", qgame.bayes.GAME_TYPE_II.u1, qgame.bayes.GAME_TYPE_I.u2)
    yield (
        "bayes_ne_check mu=0.3 type II with type I's u2",
        lambda: qgame.bayes_ne_check(
            0.3, qgame.MeshSpec(5, 9, 11), qgame.BayesSpec(0.3, qgame.bayes.GAME_TYPE_I, flipper)
        ),
    )
    angles = [prof.g1 for prof in profiles]
    m1 = qgame.MixedStrategy.uniform(angles[:3])
    m2 = qgame.MixedStrategy(((angles[3], 0.25), (angles[4], 0.75)))
    for spec in specs[1:5]:
        for game in games:
            yield (
                f"mixed_payoff {game.name} {spec}",
                lambda s=spec, g=game: qgame.mixed_payoff(m1, m2, qgame.build_entangler(s), g),
            )
    # unequal dyadic weights, each support summing to exactly 1
    wide1 = qgame.MixedStrategy(tuple(zip(angles[:5], (0.5, 0.125, 0.0625, 0.25, 0.0625))))
    wide2 = qgame.MixedStrategy(tuple(zip(angles[4:], (0.375, 0.25, 0.125, 0.25))))
    for game in games:
        yield (
            f"mixed_payoff 5x4 {game.name} unitary(seed 7)",
            lambda g=game: qgame.mixed_payoff(wide1, wide2, unitary, g),
        )
    yield (
        "mixed_payoff non-unitary j",
        lambda: qgame.mixed_payoff(m1, m2, 2.0 * np.eye(4), qgame.PRISONER_DILEMMA),
    )
    yield from _structure_calls(qgame, np, angles, unitary)


def _structure_calls(qgame, np, angles, unitary):
    """Final amplitudes, structural predicates, thresholds and mesh classes."""
    poles = [qgame.StrategyAngles(0.0, 0.0, 0.0), qgame.StrategyAngles(0.0, 0.0, math.pi)]
    poles.append(qgame.StrategyAngles(math.pi / 2, 0.0, 0.0))
    strategies = poles + angles[:3]
    js = [
        (f"{f}({b!r})", qgame.build_entangler(qgame.EntanglerSpec(f, b)))
        for f in ("j1", "j2")
        for b in (0.0, 0.5, math.pi / 2)
    ]
    js += [("identity", np.eye(4)), ("unitary(seed 7)", unitary)]
    for name, j in js:
        for g1 in strategies:
            for g2 in strategies[::2]:
                # tolist: the repr of each complex amplitude, to the last bit
                yield f"final_state {name} {g1} {g2}", lambda j=j, a=g1, b=g2: qgame.final_state(j, a, b).tolist()
    rng = np.random.default_rng(13)
    qubits = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
    qutrits = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
    two_qubit = {
        "product": qgame.tensor(*qubits),
        "bell psi_plus": qgame.bell_state("psi_plus"),
        "partial T(0.3)": qgame.partial_state("T", 0.3),
    }
    two_qutrit = {
        "product": qgame.qutrit_tensor(*qutrits),
        "J(2pi/9)|00>": qgame.qutrit_entangler(2 * math.pi / 9)[:, 0],
        "J(0.1)|00>": qgame.qutrit_entangler(0.1)[:, 0],
    }
    # a minor of 0.9e-12 or 1.1e-12 against the default tolerance 1e-12
    for eps in (0.9e-12, 1.1e-12):
        two_qubit[f"|00> + {eps!r}|11>"] = np.array([1.0, 0.0, 0.0, eps])
        two_qutrit[f"|00> + {eps!r}|22>"] = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, eps])
        two_qutrit[f"|11> + {eps!r}|22>"] = np.array([0, 0, 0, 0, 1.0, 0, 0, 0, eps])
    for label, state in two_qubit.items():
        yield f"is_product_state {label}", lambda s=state: qgame.is_product_state(s)
        yield f"is_product_state {label} tol=1e-3", lambda s=state: qgame.is_product_state(s, 1e-3)
    for label, state in two_qutrit.items():
        yield f"is_qutrit_product {label}", lambda s=state: qgame.is_qutrit_product(s)
        yield f"is_qutrit_product {label} tol=1e-3", lambda s=state: qgame.is_qutrit_product(s, 1e-3)
    for b in (0.1, 2 * math.pi / 9, 1.0):
        yield f"entangled_initial_state {b!r}", lambda b=b: qgame.qutrits.entangled_initial_state(b).tolist()
    yield "qutrit_tensor random", lambda: qgame.qutrit_tensor(*qutrits).tolist()
    yield "qutrit_tensor basis", lambda: qgame.qutrit_tensor([0, 1, 0], [0, 0, 1j]).tolist()
    generator_sets = {
        "S12 S13": ("S12", "S13"),
        "S12": ("S12",),
        "C123": ("C123",),
        "all six": ("I3", "S12", "S13", "S23", "C123", "C132"),
    }
    for label, names in generator_sets.items():
        yield (
            f"commutant_is_scalar {label}",
            lambda n=names: qgame.commutant_is_scalar([qgame.perm_matrix(x) for x in n], 3),
        )
    for dim in (1, 3):
        yield f"commutant_is_scalar no generators dim={dim}", lambda d=dim: qgame.commutant_is_scalar([], d)
    for which in ("psi_plus", "psi_minus", "T", "S"):
        yield f"bell_state {which}", lambda w=which: qgame.bell_state(w).tolist()
    for family in ("psi_plus", "T"):
        for gamma in (0.0, 0.3, math.pi / 2, 3 * math.pi / 4, math.pi):
            yield (
                f"partial_state {family} {gamma!r}",
                lambda f=family, g=gamma: qgame.partial_state(f, g).tolist(),
            )
    for game in (qgame.bayes.GAME_TYPE_I, qgame.bayes.GAME_TYPE_II):
        yield f"bayes type table {game.name}", lambda g=game: g
    # the bytes of J, negative zeros included
    for family, b in (
        ("identity", 0.0),
        ("identity", 0.7),
        ("identity", math.pi / 2),
        ("j1", 0.0),
        ("j1", math.pi / 2),
        ("j2", math.pi / 2),
    ):
        yield (
            f"build_entangler {family}({b!r}) bytes",
            lambda f=family, b=b: qgame.build_entangler(qgame.EntanglerSpec(f, b)).tobytes().hex(),
        )
    identity = qgame.EntanglerSpec("identity", 0.7)
    yield "EntanglerSpec identity 0.7", lambda: identity
    # a fixed label: the spec's repr differs between trees that store beta differently
    yield (
        "find_pure_ne da_brother identity(0.7) (3, 5, 5)",
        lambda: qgame.find_pure_ne(qgame.DA_BROTHER, identity, qgame.MeshSpec(3, 5, 5)),
    )
    j1 = qgame.build_entangler(qgame.EntanglerSpec("j1", math.pi / 2))
    for eps in (0.0, 1e-13, 1e-11):
        bumped = j1.copy()
        bumped[0, 1] += eps
        yield f"is_unitary j1(pi/2) + {eps!r} at (0, 1)", lambda m=bumped: qgame.is_unitary(m)
        yield f"is_unitary j1(pi/2) + {eps!r} at (0, 1) tol=1e-10", lambda m=bumped: qgame.is_unitary(m, 1e-10)
    commensurate = {
        "swap": np.eye(4)[[0, 2, 1, 3]],
        "j1(0.7)": qgame.build_entangler(qgame.EntanglerSpec("j1", 0.7)),
        "j2(0.0)": qgame.build_entangler(qgame.EntanglerSpec("j2", 0.0)),
        "j2(pi/2)": qgame.build_entangler(qgame.EntanglerSpec("j2", math.pi / 2)),
        "identity": np.eye(4),
    }
    for label, j in commensurate.items():
        yield f"is_classically_commensurate {label}", lambda j=j: qgame.is_classically_commensurate(j)
    lists = {
        "descending": [qgame.NeResult(1.0, True, ()), qgame.NeResult(0.5, True, ())],
        "ascending": [qgame.NeResult(0.5, True, ()), qgame.NeResult(1.0, True, ()), qgame.NeResult(1.2, False, ())],
        "none found": [qgame.NeResult(0.5, False, ())],
    }
    for label, results in lists.items():
        yield f"threshold_beta {label}", lambda r=results: qgame.threshold_beta(r)
    nan = complex("nan")
    for a, b in ((nan, 0.0), (1.0, nan)):
        yield f"bloch_coords {a!r} {b!r}", lambda a=a, b=b: qgame.bloch_coords(a, b)
    for dims in ((3, 5, 5), (5, 1, 9), (5, 2, 3), (4, 4, 6), (5, 9, 17)):
        yield (
            f"mesh_classes {dims}",
            lambda d=dims: [a.tolist() for a in qgame.mesh.mesh_classes(qgame.MeshSpec(*d))],
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser.add_argument("--src", default=default_src, help="the src directory holding the qgame package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import qgame
    from host_header import host_line

    print(host_line(np))
    for label, thunk in calls(qgame, np):
        print(f"# {label}")
        try:
            print(repr(thunk()))
        except (TypeError, ValueError) as exc:
            print(f"raised {exc!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
