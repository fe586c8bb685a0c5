"""Command line interface.

Subcommands cover the whole workflow: generate synthetic CSVs, fit a
vine density model, benchmark density estimators, adapt a fitted model
to target-task data, predict and evaluate on test rows, and run a
standalone two-sample test.

Exit codes: 0 ok (mmd-test: no shift detected), 1 mmd-test rejection,
2 parse error, 3 degenerate, insufficient or otherwise invalid data or
settings (any other ValueError), 4 schema mismatch, 5 internal invariant
violation or unexpected error. Every failure prints one "error:" line.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bench, modelfile, synth
from .adapt import AdaptationInput, _aligned, adapt_vine
from .dataio import Dataset, read_csv, write_csv
from .errors import (DegenerateDataError, InsufficientDataError, ParseError,
                     SchemaError, StructureError)
from .mmd import MmdConfig, permutation_test
from .regress import (conditional_density_batch, default_grid, evaluate,
                      feature_indices, predict_means)
from .rvine import fit_vine

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_PARSE = 2
EXIT_DATA = 3
EXIT_SCHEMA = 4
EXIT_INTERNAL = 5

MODE_NAMES = {"supervised": "supervised", "semi": "semi_supervised",
              "unsupervised": "unsupervised"}


def _source_dataset(model) -> Dataset:
    """Source sample recovered from the stored kernel support points.

    Only a source model stores its training rows that way: adaptation
    refits marginals on other row sets, so an adapted model is refused.
    """
    if model.fit_metadata.get("adapted"):
        raise SchemaError("only a source model can be adapted; "
                          "this model was already adapted")
    Z = np.column_stack([np.asarray(m.centers, dtype=float) for m in model.marginals])
    if model.norm_mean is not None:
        Z = model.norm_mean + model.norm_std * Z
    return Dataset(list(model.variable_names), Z)


def _feature_table(model, ds: Dataset) -> np.ndarray:
    """Feature columns of ds in model order; the target column may be absent."""
    y = model.target_index
    names = model.variable_names
    X = _aligned(ds, names, missing_ok={names[y]})
    return X[:, feature_indices(model)]


def cmd_fit(args) -> int:
    ds = read_csv(args.input)
    t0 = time.perf_counter()
    model = fit_vine(ds.X, truncation=args.truncation, family=args.family,
                     variable_names=ds.names, target_index=ds.target_index(args.target),
                     normalize=args.normalize, seed=args.seed)
    elapsed = time.perf_counter() - t0
    modelfile.save(model, args.output)
    print(f"fitted {ds.n} rows x {ds.d} variables, truncation {model.truncation}")
    for tree in model.trees:
        for e in tree.edges:
            print(f"  T{tree.level}  {e.label():<12} |tau| = {e.weight:.4f}")
    print(f"fit time: {elapsed:.3f}s")
    print(f"model written to {args.output}")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = {}
    if args.dim is not None:
        params["d"] = args.dim
    if args.rho is not None:
        params["rho"] = args.rho
    if args.noise is not None:
        params["noise"] = args.noise
    if args.mix_weight is not None:
        params["mix_weight"] = args.mix_weight
    if args.marginals is not None:
        params["marginals"] = tuple(s.strip() for s in args.marginals.split(","))
    gen = synth.get_generator(args.generator, **params)
    ds = gen(args.samples, np.random.default_rng(args.seed))
    write_csv(args.output, ds)
    print(f"wrote {ds.n} rows x {ds.d} columns to {args.output}")
    return EXIT_OK


def cmd_density_bench(args) -> int:
    cfg = bench.ExperimentConfig(seed=args.seed, n_samples=args.samples,
                                 train_fraction=args.train_fraction,
                                 repetitions=args.repetitions,
                                 truncation=args.truncation)
    gens = {
        "gauss-chain": synth.get_generator("gaussian-chain", d=8, rho=0.6),
        "exp-chain": synth.get_generator("gaussian-chain", d=8, rho=0.6,
                                         marginals=("gauss", "exp")),
        "bimodal-chain": synth.get_generator("bimodal-chain", d=8, rho=0.9,
                                             mix_weight=0.7),
    }
    results = bench.density_bench(gens, cfg)
    print(bench.format_density_table(results))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(bench.density_csv_rows(results)) + "\n")
        print(f"per-repetition results written to {args.csv}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    model = modelfile.load(args.model)
    if model.target_index is None:
        raise SchemaError("model has no target variable; refit with --target")
    labeled = read_csv(args.target_labeled) if args.target_labeled else None
    unlabeled = read_csv(args.target_unlabeled) if args.target_unlabeled else None
    inp = AdaptationInput(
        source=_source_dataset(model),
        target_labeled=labeled,
        target_unlabeled=unlabeled,
        target_index=model.target_index,
        mode=MODE_NAMES[args.mode],
        mmd_config=MmdConfig(permutations=args.permutations, alpha=args.alpha,
                             seed=args.seed))
    adapted, report = adapt_vine(model, inp)
    modelfile.save(adapted, args.output)
    text = report.summary()
    print(text)
    print(f"adapted model written to {args.output}")
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = modelfile.load(args.model)
    if model.target_index is None:
        raise SchemaError("model has no target variable; refit with --target")
    ds = read_csv(args.test)
    X_feat = _feature_table(model, ds)
    grid = default_grid(model, args.grid_points)
    preds = predict_means(model, X_feat, grid)
    cols = [("prediction", preds)]
    if args.log_density:
        y_name = model.variable_names[model.target_index]
        if y_name not in ds.names:
            raise SchemaError(f"--log-density needs the '{y_name}' column")
        dens = conditional_density_batch(model, X_feat, grid)
        y = ds.column(y_name)
        vals = np.array([np.interp(y[r], grid.points, dens[r]) for r in range(ds.n)])
        cols.append(("log_density", np.log(np.maximum(vals, 1e-300))))
    out = Dataset([c for c, _ in cols], np.column_stack([v for _, v in cols]))
    write_csv(args.output, out)
    print(f"wrote {ds.n} predictions to {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = modelfile.load(args.model)
    if model.target_index is None:
        raise SchemaError("model has no target variable; refit with --target")
    ds = read_csv(args.test)
    X = _aligned(ds, model.variable_names)
    aligned = Dataset(list(model.variable_names), X)
    metrics = evaluate(model, aligned, default_grid(model, args.grid_points))
    print(f"NMSE: {metrics.nmse:.6f}")
    print(f"TLL:  {metrics.tll:.6f}")
    return EXIT_OK


def cmd_mmd_test(args) -> int:
    a, b = read_csv(args.a), read_csv(args.b)
    if a.names != b.names:
        raise SchemaError(f"column mismatch: {a.names} vs {b.names}")
    cfg = MmdConfig(permutations=args.permutations, alpha=args.alpha, seed=args.seed)
    res = permutation_test(a.X, b.X, cfg)
    print(f"mmd^2 statistic: {res.statistic:.6g}")
    print(f"p-value:         {res.p_value:.6g}")
    print("verdict:         " + ("distributions differ" if res.rejected
                                 else "no significant difference"))
    return EXIT_REJECT if res.rejected else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vineshift",
        description="Non-parametric vine copula density estimation "
                    "with MMD-driven domain adaptation.")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit a vine density model to a CSV")
    f.add_argument("input", help="training CSV (header row required)")
    f.add_argument("-o", "--output", required=True, help="model file to write")
    f.add_argument("--truncation", type=int, default=1)
    f.add_argument("--family", choices=("kernel", "gaussian"), default="kernel")
    f.add_argument("--target", default=None,
                   help="target column name (default: last column)")
    f.add_argument("--normalize", action="store_true",
                   help="z-score columns using training statistics")
    f.add_argument("--seed", type=int, default=None)
    f.set_defaults(func=cmd_fit)

    g = sub.add_parser("gen", help="generate a synthetic CSV")
    g.add_argument("generator",
                   help="gaussian-copula-chain | bimodal-copula-chain | "
                        "regression | regression-shifted")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("-n", "--samples", type=int, default=1000)
    g.add_argument("-d", "--dim", type=int, default=None)
    g.add_argument("--rho", type=float, default=None)
    g.add_argument("--noise", type=float, default=None)
    g.add_argument("--mix-weight", type=float, default=None)
    g.add_argument("--marginals", default=None,
                   help="comma-separated: gauss,exp,lognormal,uniform")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("density-bench",
                       help="NPRV/GRV/KDE test log-likelihood comparison")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--samples", type=int, default=1000)
    b.add_argument("--repetitions", type=int, default=50)
    b.add_argument("--truncation", type=int, default=1)
    b.add_argument("--train-fraction", type=float, default=0.3)
    b.add_argument("--csv", default=None, help="write per-repetition rows here")
    b.set_defaults(func=cmd_density_bench)

    a = sub.add_parser("adapt", help="adapt a fitted model to target-task data")
    a.add_argument("model", help="source model file")
    a.add_argument("-o", "--output", required=True, help="adapted model file")
    a.add_argument("--target-labeled", default=None, help="labeled target CSV")
    a.add_argument("--target-unlabeled", default=None,
                   help="feature-only target CSV (no target column)")
    a.add_argument("--mode", choices=tuple(MODE_NAMES), default="semi")
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--permutations", type=int, default=200)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--report", default=None, help="write the report text here")
    a.set_defaults(func=cmd_adapt)

    pr = sub.add_parser("predict", help="predict the target column")
    pr.add_argument("model")
    pr.add_argument("test", help="CSV of feature rows (target column optional)")
    pr.add_argument("-o", "--output", required=True, help="predictions CSV")
    pr.add_argument("--grid-points", type=int, default=257)
    pr.add_argument("--log-density", action="store_true",
                    help="also report log conditional density of observed targets")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="NMSE and test log-likelihood on a test CSV")
    ev.add_argument("model")
    ev.add_argument("test")
    ev.add_argument("--grid-points", type=int, default=257)
    ev.set_defaults(func=cmd_eval)

    m = sub.add_parser("mmd-test", help="two-sample permutation test on two CSVs")
    m.add_argument("a")
    m.add_argument("b")
    m.add_argument("--alpha", type=float, default=0.05)
    m.add_argument("--permutations", type=int, default=200)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_mmd_test)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateDataError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
