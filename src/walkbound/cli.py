"""Command-line front end: reproducible experiments with JSON reports.

Four subcommands wire the library together:

  spectral     eigenvalue sweep of the affine-torus family, plus a K4 self test
  verify-beta  product-form independence check for walk position projections
  bound        conditional-expectation tail bounds on generated or loaded instances
  amplify      end-to-end hardness amplification with its reduction

Reports go to stdout as JSON with sorted keys; ``--out`` copies the JSON to a
file and ``--csv`` writes per-row tables for sweep-style commands.  Exit status
is 0 when every check in the run holds, 1 when some check fails, and 2 for
usage, parse, or resource errors.  Randomized commands require ``--seed``;
rerunning any command with identical flags reproduces every number except the
wall time.

Each handler imports the library modules it runs as its first statements, so
a process runs only its command's modules (``spectral`` never runs ``prob``,
``walks`` or ``owf``), and their loading stays out of the reported wall time.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import BudgetError, ParameterError, StructuralError, WalkboundError

SPECTRAL_M_MAX = 10           # eigensolver budget: N = 4**m vertices
# verify-beta's own budget: its sampled check takes about 30 s and 285 MiB at
# m = 9, and each level costs about 4 times more
VERIFY_BETA_M_MAX = 9


def _check(name: str, holds: bool, **extra) -> dict:
    row = {"name": name, "holds": bool(holds)}
    row.update(extra)
    return row


def _report(command: str, config: dict, seed, results: dict, checks: list, t0: float) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "results": results,
        "checks": checks,
        "all_hold": all(c["holds"] for c in checks),
        "wall_time_s": time.perf_counter() - t0,
        "version": __version__,
    }


def _open_output(path: str, newline=None):
    """``path`` opened for writing; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: str, fieldnames: list, rows: list) -> None:
    with _open_output(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_spectral(args) -> dict:
    from .expander import (ALPHA_FAMILY_BOUND, adjacency_chunks, k4_rotation, mgg_rotation,
                           second_eigenvalue_magnitude, torus_spectrum)
    from .rng import ROUTE_AGREE_TOL

    t0 = time.perf_counter()
    if args.m_min < 1:
        raise ParameterError(f"--m-min must be >= 1, got {args.m_min}")
    if args.m < args.m_min:
        raise ParameterError(f"--m must be >= --m-min, got {args.m} < {args.m_min}")
    if args.m > SPECTRAL_M_MAX:
        raise BudgetError(f"m={args.m} exceeds the eigensolver budget (m <= {SPECTRAL_M_MAX})")
    rows = []
    checks = []

    k4 = second_eigenvalue_magnitude(k4_rotation())
    rows.append({"graph": "K4", "m": 0, "n_vertices": 4, "degree": 3, **k4.to_dict()})
    checks.append(
        _check(
            "K4-alpha-exact",
            abs(k4.alpha - 1.0 / 3.0) <= ROUTE_AGREE_TOL,
            measured=k4.alpha,
            target=1.0 / 3.0,
        )
    )

    # each level is the base of the next one's covering route; no level's
    # rotation outlives its solve
    rep, alphas = None, []
    for m in range(args.m_min, args.m + 1):
        rep = torus_spectrum(mgg_rotation(m), rep)
        rows.append({"graph": f"torus-m{m}", "m": m, "n_vertices": 4 ** m, "degree": 8, **rep.to_dict()})
        checks.append(
            _check(
                f"alpha-bound-m{m}",
                rep.converged and rep.alpha <= ALPHA_FAMILY_BOUND + rep.tol,
                measured=rep.alpha,
                bound=ALPHA_FAMILY_BOUND,
                slack=ALPHA_FAMILY_BOUND + rep.tol - rep.alpha,
            )
        )
        alphas.append(rep.alpha)
    # spec(m-1) is contained in spec(m), so alpha never drops along the sweep
    drops = [lo - hi for lo, hi in zip(alphas, alphas[1:])]
    checks.insert(1, _check("alpha-monotone", all(x <= rep.tol for x in drops),
                            max_drop=max(drops, default=0.0), tol=rep.tol))

    if args.dump_graph:
        with _open_output(args.dump_graph) as fh:
            fh.writelines(adjacency_chunks(mgg_rotation(args.m)))
    if args.csv:
        _write_csv(
            args.csv,
            ["graph", "m", "n_vertices", "degree", "alpha", "beta", "lambda_second",
             "lambda_min", "method", "iterations", "converged", "alpha_cover"],
            rows,
        )
    config = {"m_min": args.m_min, "m_max": args.m}
    return _report("spectral", config, None, {"rows": rows}, checks, t0)


def cmd_verify_beta(args) -> dict:
    from .expander import mgg_rotation, torus_spectrum
    from .rng import ROUTE_AGREE_TOL, STREAM_AGREE, STREAM_PERMUTATION, permutation, stream_key
    from .walks import (SUBSET_EXH_MAX_N, WALK_ENUM_MAX, HybridGraph, family_event_probs,
                        family_event_probs_matrix, random_families, verify_walk_independence)

    t0 = time.perf_counter()
    if args.m < 1:
        raise ParameterError(f"--m must be >= 1, got {args.m}")
    if args.m > VERIFY_BETA_M_MAX:
        raise BudgetError(f"m={args.m} exceeds the verify-beta budget (m <= {VERIFY_BETA_M_MAX})")
    if args.t < 0:
        raise ParameterError(f"--t must be >= 0, got {args.t}")
    if args.trials < 0 or args.agree < 0:
        raise ParameterError("--trials and --agree must be >= 0")
    if args.mode == "sampled" and args.trials == 0:
        raise ParameterError("--mode sampled needs --trials >= 1")
    if args.mode == "exhaustive" and 4 ** args.m > SUBSET_EXH_MAX_N:
        raise BudgetError(
            f"--mode exhaustive sweeps 2**{4 ** args.m} subsets at m={args.m}, over the "
            f"2**{SUBSET_EXH_MAX_N} ceiling (use --mode sampled)"
        )
    bits = 2 * args.m + 3 * args.t      # 4**m vertices times 8**t label strings
    if bits >= 63:
        raise BudgetError(f"walk count 2**{bits} at m={args.m}, t={args.t} exceeds the 64-bit range")
    walks = 1 << bits
    if args.agree > 0 and walks > WALK_ENUM_MAX:
        raise BudgetError(
            f"--agree enumerates {walks} walks at m={args.m}, t={args.t}, over the "
            f"{WALK_ENUM_MAX} ceiling (use --agree 0)"
        )
    rot = mgg_rotation(args.m)
    spectral = torus_spectrum(rot)
    # the same stream as amplify's random_permutation: one seed, one graph
    perm = permutation(stream_key(args.seed, STREAM_PERMUTATION), rot.n_vertices)
    g = HybridGraph(rot, perm)
    rep = verify_walk_independence(
        g, args.t, spectral.beta, mode=args.mode, trials=args.trials, seed=args.seed
    )
    checks = [
        _check("product-bound", spectral.converged and rep.holds, worst_ratio=rep.worst_ratio),
    ]

    # Dual-route agreement on a fresh batch of sampled families.
    agreement = 0.0
    if args.agree > 0:
        masks = random_families(stream_key(args.seed, STREAM_AGREE), args.agree, args.t,
                                g.n_vertices)
        by_matrix = family_event_probs_matrix(g, args.t, masks)
        by_enum = family_event_probs(g, args.t, masks)
        agreement = float(np.max(np.abs(by_matrix - by_enum)))
        checks.append(_check("route-agreement", agreement <= ROUTE_AGREE_TOL, max_diff=agreement))

    # sanity families: every walk, and none (empty at position 0)
    sanity = np.ones((2, args.t + 1, g.n_vertices), dtype=bool)
    sanity[1, 0] = False
    prob_full, prob_empty = family_event_probs_matrix(g, args.t, sanity).tolist()
    checks.append(_check("full-family-probability-one", abs(prob_full - 1.0) <= ROUTE_AGREE_TOL,
                         measured=prob_full))
    checks.append(_check("empty-set-probability-zero", prob_empty == 0.0, measured=prob_empty))

    config = {"m": args.m, "t": args.t, "mode": args.mode, "trials": args.trials,
              "agree": args.agree}
    results = {
        "n_vertices": g.n_vertices,
        "degree": g.d,
        "spectral": spectral.to_dict(),
        "independence": rep.to_dict(),
        "route_agreement_max_diff": agreement,
    }
    return _report("verify-beta", config, args.seed, results, checks, t0)


def _numeric(value, field: str, dtype=float) -> np.ndarray:
    """``value`` as a numpy array, or a StructuralError naming the instance field.

    Every leaf of ``value`` must be a JSON number: numpy would also parse a
    numeric string such as ``"0.5"`` and read ``true`` as 1."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise StructuralError(f"instance field {field!r} must be numeric")
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise StructuralError(f"instance field {field!r} must be numeric") from None


def _instance_from_file(path: str) -> tuple:
    from .prob import FiniteSpace, RandomObject, RandomVariable

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read instance file: {exc}") from None
    if not isinstance(data, dict):
        raise StructuralError("instance file must hold a JSON object")
    for field in ("weights", "objects", "z"):
        if field not in data:
            raise StructuralError(f"instance file is missing the {field!r} field")
    if not isinstance(data["objects"], list):
        raise StructuralError("instance field 'objects' must be a list of index maps")
    weights = _numeric(data["weights"], "weights")
    space = FiniteSpace(weights)
    objects = []
    for index_map in data["objects"]:
        arr = _numeric(index_map, "objects", np.int64)
        if not np.array_equal(arr, _numeric(index_map, "objects")):   # the cast truncates 1.7 to 1
            raise StructuralError("instance field 'objects' must hold integer indices")
        if arr.size == 0:
            raise StructuralError("an object's index map is empty")
        objects.append(RandomObject(space, tuple(range(int(arr.max()) + 1)), arr))
    z = RandomVariable(space, _numeric(data["z"], "z"))
    beta = _numeric(data.get("beta", 1.0), "beta")
    eps = _numeric(data.get("eps", 0.01), "eps")
    if beta.ndim != 0 or eps.ndim > 1 or eps.size == 0:
        raise StructuralError("instance 'beta' must be a number, 'eps' a number or nonempty list")
    variant = data.get("variant", "pooled")
    if variant not in ("pooled", "percoord"):
        raise StructuralError("instance field 'variant' must be 'pooled' or 'percoord'")
    return z, objects, variant, np.atleast_1d(eps).tolist(), float(beta)


def _bound_eps(variant, eps: list, t: int):
    """The eps argument of the bound: the one value for ``pooled``, else one
    value per object (a single value is repeated)."""
    if variant == "pooled":
        if len(eps) != 1:
            raise ParameterError(f"the pooled bound takes one eps, got {len(eps)}")
        return eps[0]
    return eps * t if len(eps) == 1 else eps


def _bound_instance(args) -> tuple:
    """``(z, objects, variant, eps, beta, config)`` of a one-instance ``bound`` run."""
    from .prob import cube_instance, random_product_instance

    if args.instance_file:
        config = {"preset": "file", "instance_file": args.instance_file}
        return *_instance_from_file(args.instance_file), config
    if args.preset == "cube":
        z, objects = cube_instance(args.p, args.t)
        config = {"preset": "cube", "p": args.p, "t": args.t}
    else:
        z, objects = random_product_instance(
            args.t, args.psi, args.seed, identical=args.variant == "pooled"
        )
        config = {"preset": "random", "t": args.t, "psi": args.psi}
    config.update(eps=args.eps, beta=args.beta, variant=args.variant)
    return z, objects, args.variant, args.eps, args.beta, config


def cmd_bound(args) -> dict:
    from .prob import grid_points, percoord_bound, pooled_bound, product_bound_sweep
    from .rng import ROUTE_AGREE_TOL, STREAM_SWEEP, integers, stream_key

    t0 = time.perf_counter()
    checks = []
    results = {}
    seed = args.seed
    if not args.instance_file and args.preset != "cube" and seed is None:
        raise ParameterError("--seed is required for randomized presets")

    if args.instance_file or args.preset != "sweep":
        z, objects, variant, eps, beta, config = _bound_instance(args)
        bound = pooled_bound if variant == "pooled" else percoord_bound
        rep = bound(z, objects, _bound_eps(variant, eps, len(objects)), beta)
        results["bound"] = rep.to_dict()
        checks.append(_check("bound-holds", rep.holds, slack=rep.slack))
        # below the conditional's single nonzero level the cube's bound is tight up to t*eps
        if config["preset"] == "cube" and eps[0] < args.p ** (1.0 - 1.0 / args.t):
            gap = abs(rep.bound_value - (rep.expectation + args.t * eps[0]))
            checks.append(_check("cube-tightness", gap <= ROUTE_AGREE_TOL, gap=gap))
    else:  # sweep
        if args.count < 0:
            raise ParameterError(f"--count must be >= 0, got {args.count}")
        seeds = integers(stream_key(seed, STREAM_SWEEP), np.arange(args.count), 1 << 62).tolist()
        if seeds:   # the grid is refused before _bound_eps lists t epsilons
            grid_points(args.t, args.psi)
        reports = product_bound_sweep(
            args.t, args.psi, seeds, _bound_eps(args.variant, args.eps, args.t), args.beta,
            pooled=args.variant == "pooled",
        )
        rows = [
            {"index": i, "seed": s, "expectation": rep.expectation,
             "bound": rep.bound_value, "slack": rep.slack, "holds": rep.holds}
            for i, (s, rep) in enumerate(zip(seeds, reports))
        ]
        n_bad = sum(1 for r in rows if not r["holds"])
        checks.append(_check("sweep-all-hold", n_bad == 0, violations=n_bad, count=len(rows)))
        results["rows"] = rows
        if args.csv:
            _write_csv(args.csv, ["index", "seed", "expectation", "bound", "slack", "holds"], rows)
        config = {"preset": "sweep", "t": args.t, "psi": args.psi, "eps": args.eps,
                  "beta": args.beta, "variant": args.variant, "count": args.count}
    return _report("bound", config, seed, results, checks, t0)


def _mc_tolerance(p: float, trials: int) -> float:
    # four-sigma binomial band plus one count of slop
    return 4.0 * float(np.sqrt(max(p * (1.0 - p), 1e-12) / trials)) + 1.0 / trials


def cmd_amplify(args) -> dict:
    from .expander import mgg_rotation, torus_spectrum
    from .owf import (TABLE_MAX_BITS, AdversaryOracle, BlockwiseInverter, ExperimentConfig,
                      WalkChainInverter, direct_power, image_distribution, measure_inversion,
                      planted_profile, random_permutation, reduce_direct, reduce_walk,
                      repeat_amplify, walk_permutation)
    from .prob import HOLDS_SLACK
    from .rng import STREAM_SUBSEEDS, stream_key, words
    from .walks import HybridGraph

    t0 = time.perf_counter()
    checks = []
    if args.construction == "walk":
        if args.m is None:
            raise ParameterError("walk construction requires --m")
        if args.m < 1:
            raise ParameterError(f"--m must be >= 1, got {args.m}")
        n = 2 * args.m
        if args.n is not None and args.n != n:
            raise ParameterError(f"walk construction at m={args.m} fixes n={n}")
        if args.t < 2:
            raise ParameterError("walk construction needs t >= 2 for its reduction")
        bits = n + 3 * args.t           # degree-8 torus: 3 label bits per step
        if bits > TABLE_MAX_BITS:
            raise BudgetError(f"walk permutation needs {bits} bits, over {TABLE_MAX_BITS}")
        rot = mgg_rotation(args.m)
    else:
        if args.n is None:
            raise ParameterError("direct construction requires --n")
        n = args.n
        # the reduction's exact profile: t tables of 2**(n*t) entries, n*t + ceil(log2 t) bits
        bits = n * args.t + (args.t - 1).bit_length()
        if bits > TABLE_MAX_BITS:
            raise BudgetError(f"exact reduced profile needs {bits} bits, over {TABLE_MAX_BITS}")
    cfg = ExperimentConfig(
        n=n, t=args.t, k=args.k, delta=args.delta, eps=args.eps, seed=args.seed,
        mode=args.mode, trials=args.trials, m=args.m if args.construction == "walk" else None,
    )
    base_seed, mc_seed, red_seed, mc_seed2 = words(
        stream_key(cfg.seed, STREAM_SUBSEEDS), np.arange(4)).tolist()

    func = random_permutation(cfg.n, cfg.seed)
    profile = planted_profile(func, cfg.delta)
    base = AdversaryOracle(func, profile, seed=base_seed)
    tail = float(image_distribution(func) @ (profile > cfg.eps))

    if args.construction == "direct":
        big = direct_power(func, cfg.t)
        amplified = BlockwiseInverter(base, cfg.t, power=big)
        alpha, beta = 0.0, 1.0
        reduced = reduce_direct(amplified, func, cfg.t, red_seed)
        amplified_bits = cfg.n * cfg.t
        spectral_row = None
        spectral_ok = True
    else:
        spectral = torus_spectrum(rot)
        alpha, beta, spectral_ok = spectral.alpha, spectral.beta, spectral.converged
        g = HybridGraph(rot, func.table)
        big = walk_permutation(g, cfg.t)
        amplified = WalkChainInverter(base, g, cfg.t, permutation=big)
        reduced = reduce_walk(amplified, g, cfg.t, red_seed)
        amplified_bits = big.n
        spectral_row = spectral.to_dict()

    bound = (alpha + beta * tail) ** cfg.t + cfg.t * cfg.eps
    base_rep = measure_inversion(func, base, mode="exact")
    amp_exact = measure_inversion(big, amplified, mode="exact")
    red_exact = measure_inversion(func, reduced, mode="exact")
    repeated = repeat_amplify(reduced, cfg.k)
    rep_exact = measure_inversion(func, repeated, mode="exact")

    checks.append(
        _check(
            "amplified-bound",
            spectral_ok and amp_exact.success <= bound + HOLDS_SLACK,
            measured=amp_exact.success,
            bound=bound,
            slack=bound - amp_exact.success,
        )
    )

    results = {
        "construction": args.construction,
        "base_bits": cfg.n,
        "amplified_bits": amplified_bits,
        "alpha": alpha,
        "beta": beta,
        "tail": tail,
        "base": base_rep.to_dict(),
        "amplified": amp_exact.to_dict(),
        "reduced": red_exact.to_dict(),
        "repeated": rep_exact.to_dict(),
        "k": cfg.k,
    }
    if spectral_row is not None:
        results["spectral"] = spectral_row

    if cfg.mode == "mc":
        before = amplified.query_count
        red_mc = measure_inversion(func, reduced, mode="mc", trials=cfg.trials, seed=mc_seed)
        inner_queries = amplified.query_count - before
        checks.append(
            _check(
                "single-inner-query",
                inner_queries == cfg.trials,
                inner_queries=inner_queries,
                trials=cfg.trials,
            )
        )
        checks.append(
            _check("reduction-soundness", red_mc.soundness_violations == 0,
                   violations=red_mc.soundness_violations)
        )
        tol = _mc_tolerance(red_exact.success, cfg.trials)
        checks.append(
            _check(
                "mc-matches-exact",
                abs(red_mc.success - red_exact.success) <= tol,
                mc=red_mc.success,
                exact=red_exact.success,
                tol=tol,
            )
        )
        amp_mc = measure_inversion(big, amplified, mode="mc", trials=cfg.trials, seed=mc_seed2)
        checks.append(
            _check("amplified-soundness", amp_mc.soundness_violations == 0,
                   violations=amp_mc.soundness_violations)
        )
        results["reduced_mc"] = red_mc.to_dict()
        results["amplified_mc"] = amp_mc.to_dict()

    config = cfg.to_dict()
    config["construction"] = args.construction
    return _report("amplify", config, cfg.seed, results, checks, t0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkbound",
        description="Reproducible tail-bound, expander, and amplification experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="eigenvalue sweep of the affine-torus family")
    sp.add_argument("--m", type=int, required=True, help="largest torus parameter (N = 4**m)")
    sp.add_argument("--m-min", type=int, default=2)
    sp.add_argument("--dump-graph", metavar="PATH", help="write the largest graph's adjacency list")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--csv", metavar="PATH")
    sp.set_defaults(func=cmd_spectral)

    vb = sub.add_parser("verify-beta", help="independence bound for walk position projections")
    vb.add_argument("--m", type=int, required=True)
    vb.add_argument("--t", type=int, required=True)
    vb.add_argument("--seed", type=int, required=True)
    vb.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    vb.add_argument("--trials", type=int, default=10_000)
    vb.add_argument("--agree", type=int, default=100,
                    help="families for the matrix-vs-enumeration agreement check")
    vb.add_argument("--out", metavar="PATH")
    vb.set_defaults(func=cmd_verify_beta)

    bd = sub.add_parser("bound", help="tail bounds on generated or loaded instances")
    bd.add_argument("--preset", choices=["cube", "random", "sweep"], default="cube")
    bd.add_argument("--instance-file", metavar="PATH", help="JSON instance (overrides --preset)")
    bd.add_argument("--p", type=float, default=0.25, help="corner mass for the cube preset")
    bd.add_argument("--t", type=int, default=2)
    bd.add_argument("--psi", type=int, default=4, help="per-coordinate space size (random/sweep)")
    bd.add_argument("--eps", type=float, nargs="+", default=[0.01])
    bd.add_argument("--beta", type=float, default=1.0)
    bd.add_argument("--variant", choices=["pooled", "percoord"], default="pooled")
    bd.add_argument("--count", type=int, default=100, help="instances in a sweep")
    bd.add_argument("--seed", type=int)
    bd.add_argument("--out", metavar="PATH")
    bd.add_argument("--csv", metavar="PATH")
    bd.set_defaults(func=cmd_bound)

    am = sub.add_parser("amplify", help="hardness amplification end to end")
    am.add_argument("--construction", choices=["direct", "walk"], default="direct")
    am.add_argument("--n", type=int, help="input bits of the base function (direct)")
    am.add_argument("--m", type=int, help="torus parameter (walk; fixes n = 2m)")
    am.add_argument("--t", type=int, required=True)
    am.add_argument("--k", type=int, default=1, help="repetitions of the reduced inverter")
    am.add_argument("--delta", type=float, default=0.25)
    am.add_argument("--eps", type=float, default=1.0 / 64.0)
    am.add_argument("--seed", type=int, required=True)
    am.add_argument("--mode", choices=["exact", "mc"], default="exact")
    am.add_argument("--trials", type=int, default=10_000)
    am.add_argument("--out", metavar="PATH")
    am.set_defaults(func=cmd_amplify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        report = args.func(args)
        text = json.dumps(report, indent=2, sort_keys=True)
        out = getattr(args, "out", None)
        if out:
            with _open_output(out) as fh:
                fh.write(text + "\n")
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (WalkboundError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone; devnull takes stdout so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 2
    return 0 if report["all_hold"] else 1


if __name__ == "__main__":
    sys.exit(main())
