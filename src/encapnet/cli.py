"""Command line entry point.

Heavy modules are imported inside the handlers so the ENCAP_THREADS cap can
be exported to the BLAS layers before anything numeric loads.
"""

from __future__ import annotations

import argparse
import os
import sys


def _pin_threads() -> None:
    t = os.environ.get("ENCAP_THREADS")
    if not t:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, t)


def _add_data_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=None, help="override [data] dir")
    p.add_argument("--limit-train", type=int, default=None,
                   help="cap training examples (0 = all)")
    p.add_argument("--limit-test", type=int, default=None,
                   help="cap test examples (0 = all)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="encapnet",
        description="capsule networks with approximate routing and "
                    "feedback-agreement training")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="runs/out")
    p.add_argument("--seed", type=int, default=None, help="override [train] seed")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink max_epochs and the lr schedule by this factor")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--lam", type=float, default=None,
                   help="override feedback weight lambda")
    p.add_argument("--quiet", action="store_true")
    _add_data_overrides(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch", type=int, default=256)
    _add_data_overrides(p)

    p = sub.add_parser("gradcheck", help="central-difference gradient checks")
    p.add_argument("--group", default="all",
                   help="all, core, capconv, routing, feedback, or net")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("ot-bench",
                       help="entropic plans vs the exact permutation optimum")
    p.add_argument("--n", type=int, default=4, help="assignment size (<= 6)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("param-count", help="parameter table for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--per-layer", action="store_true")

    p = sub.add_parser("routing-hist",
                       help="vote-agreement histogram from a capnet checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="destination CSV")
    p.add_argument("--layer", default="class", choices=("hidden", "class"))
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--limit", type=int, default=256,
                   help="number of test examples fed through")
    _add_data_overrides(p)

    return ap


def _apply_data_overrides(dc, args):
    from dataclasses import replace
    from .configfile import SOURCE_KEYS
    from .errors import ConfigError
    if args.data_dir is not None:
        if "dir" not in SOURCE_KEYS[dc.source]:
            raise ConfigError(f"--data-dir is not read by source = {dc.source}")
        dc = replace(dc, dir=args.data_dir)
    if args.limit_train is not None:
        dc = replace(dc, limit_train=args.limit_train)
    if args.limit_test is not None:
        dc = replace(dc, limit_test=args.limit_test)
    return dc


def cmd_train(args) -> int:
    from dataclasses import replace
    from .configfile import load_config
    from .data import load_dataset
    from .network import build_network
    from .training import scale_config, train_model

    rc = load_config(args.config)
    tcfg = scale_config(rc.train, args.scale)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    if args.max_epochs is not None:
        tcfg = replace(tcfg, max_epochs=args.max_epochs)
    if args.lam is not None:
        tcfg = replace(tcfg, lam=args.lam)
    dc = _apply_data_overrides(rc.data, args)

    data = load_dataset(dc, rc.net.n_classes, rc.net.image_size)
    model = build_network(rc.net, seed=tcfg.seed)
    log = None if args.quiet else (lambda s: print(s, flush=True))
    result = train_model(model, data, tcfg, config_text=rc.text,
                         out_dir=args.out_dir, log=log)
    print(f"epochs {result.epochs_run}  best eval error {result.best_error:.4f} "
          f"(epoch {result.best_epoch})  final {result.final_error:.4f}")
    print(f"metrics {result.metrics_path}")
    print(f"best checkpoint {result.best_checkpoint}")
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint, restore_model
    from .configfile import parse_config_text
    from .data import load_dataset
    from .network import build_network
    from .training import evaluate

    ck = load_checkpoint(args.checkpoint)
    rc = parse_config_text(ck.config_text)
    dc = _apply_data_overrides(rc.data, args)
    model = build_network(rc.net, seed=rc.train.seed)
    restore_model(model, ck)
    _, _, test_x, test_y = load_dataset(dc, rc.net.n_classes, rc.net.image_size)
    error, accuracy, margin = evaluate(model, test_x, test_y, args.batch)
    print(f"test error {error:.6f}  accuracy {accuracy:.6f}  "
          f"margin loss {margin:.6f}  ({test_x.shape[0]} examples)")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import DEFAULT_H, DEFAULT_TOL
    from .gradsuite import GROUPS, run_suite

    if args.group not in GROUPS:
        print(f"unknown group {args.group!r}; choose from {sorted(GROUPS)}",
              file=sys.stderr)
        return 2
    h = args.h if args.h is not None else DEFAULT_H
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    results = run_suite(GROUPS[args.group], h=h, tol=tol)
    failed = 0
    for name, err, tol_, ok, note in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:28s} max rel err {err:.3e} (tol {tol_:.0e}; {note})")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 1 if failed else 0


def cmd_ot_bench(args) -> int:
    import time

    import numpy as np

    from .sinkhorn import brute_force_ot, sinkhorn_plan
    from .tensor import seeded_rng

    n = args.n
    worst = 0.0
    for trial in range(args.trials):
        rng = seeded_rng(args.seed, "ot-bench", trial)
        q = rng.uniform(0.0, 1.0, size=(n, n))
        t0 = time.perf_counter()
        exact = brute_force_ot(q)
        t1 = time.perf_counter()
        plan = sinkhorn_plan(q, eps=args.eps, iters=args.iters)
        approx = float((q * plan).sum())
        t2 = time.perf_counter()
        gap = abs(approx - exact)
        rel = gap / max(abs(exact), 1e-12)
        worst = max(worst, rel)
        row = float(np.abs(plan.sum(axis=1) - 1.0 / n).max())
        col = float(np.abs(plan.sum(axis=0) - 1.0 / n).max())
        print(f"trial {trial}: exact {exact:.6f}  entropic {approx:.6f}  "
              f"gap {gap:.2e} (rel {rel:.2e})  marginal dev row {row:.1e} "
              f"(half-step stale), col {col:.1e} (pinned)  "
              f"[lp {1e3 * (t1 - t0):.1f} ms, sinkhorn {1e3 * (t2 - t1):.1f} ms]")
    print(f"worst relative gap over {args.trials} trials: {worst:.3e}")
    return 0


def cmd_param_count(args) -> int:
    from .configfile import load_config
    from .network import build_network, parameter_table

    rc = load_config(args.config)
    model = build_network(rc.net, seed=rc.train.seed)
    rows, total = parameter_table(model)
    if args.per_layer:
        width = max(len(r[0]) for r in rows)
        for name, shape, count in rows:
            print(f"{name:<{width}s}  {str(shape):>20s}  {count:>10d}")
    print(f"family {rc.net.family}  depth {model.depth}  "
          f"parameters {total} ({total / 1e6:.3f} M)")
    return 0


def cmd_routing_hist(args) -> int:
    from .checkpoint import load_checkpoint, restore_model
    from .configfile import parse_config_text
    from .data import batches, load_dataset
    from .errors import ConfigError
    from .network import CapNet, build_network
    from .routing import histogram_sums, routing_histogram, write_histogram_csv
    from .tensor import Tensor, no_grad

    ck = load_checkpoint(args.checkpoint)
    rc = parse_config_text(ck.config_text)
    model = build_network(rc.net, seed=rc.train.seed)
    if not isinstance(model, CapNet):
        raise ConfigError(f"routing-hist needs a capnet_dynamic checkpoint, "
                          f"not {rc.net.family}")
    restore_model(model, ck)
    dc = _apply_data_overrides(rc.data, args)
    _, _, test_x, test_y = load_dataset(dc, rc.net.n_classes, rc.net.image_size)
    test_x, test_y = test_x[:args.limit], test_y[:args.limit]

    layer = model.class_layer if args.layer == "class" else model.hidden_layer
    model.set_mode(False)
    sums = 0
    for xb, _ in batches(test_x, test_y, args.batch, shuffle=False):
        with no_grad():
            h = model.stem(Tensor(xb))
            if layer is model.class_layer:
                h = model.hidden_layer(h)
            sums += histogram_sums(*layer.agreement(h))
    hist = routing_histogram(sums)
    write_histogram_csv(args.out, hist)
    print(f"wrote {args.out}; |cos| > 0.5 mass {hist.polarized_mass:.2f}% "
          f"over {test_x.shape[0]} examples")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ot-bench": cmd_ot_bench,
    "param-count": cmd_param_count,
    "routing-hist": cmd_routing_hist,
}


def main(argv=None) -> int:
    _pin_threads()
    args = build_parser().parse_args(argv)
    from .errors import DataFormatError, ConfigError, TrainingDiverged
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, DataFormatError, TrainingDiverged, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
