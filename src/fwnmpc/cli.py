"""Command-line entry point: scenario simulation and the identification
pipeline.

    fwnmpc simulate --scenario helix --out run.csv --report
    fwnmpc list-scenarios
    fwnmpc sysid generate --structure ol --out-dir data/
    fwnmpc sysid fit --structure ol --data data/*.csv --report fit.txt
    fwnmpc sysid validate --structure ol --params fit_params.yaml --data ...
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from fwnmpc import config as cfgio
from fwnmpc import model as md
from fwnmpc import sim, sysid
from fwnmpc.scenarios import BUILTIN_SCENARIOS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwnmpc",
                                     description="fixed-wing NMPC guidance stack")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a closed-loop scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="builtin scenario name or scenario YAML path")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--report", action="store_true",
                       help="print the run report to stdout")
    p_sim.add_argument("--strict", action="store_true",
                       help="exit nonzero if any controller period degraded or "
                            "the run ended before the scenario's duration")

    sub.add_parser("list-scenarios", help="list builtin scenarios")

    p_sysid = sub.add_parser("sysid", help="grey-box identification pipeline")
    sysid_sub = p_sysid.add_subparsers(dest="sysid_command", required=True)

    p_gen = sysid_sub.add_parser("generate", help="write synthetic datasets")
    p_gen.add_argument("--structure", choices=tuple(sysid.STRUCTURES), required=True)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--noise", action="store_true",
                       help="add validation-magnitude output noise")
    p_gen.add_argument("--seed", type=int, default=0)

    p_fit = sysid_sub.add_parser("fit", help="estimate parameters from datasets")
    p_fit.add_argument("--structure", choices=tuple(sysid.STRUCTURES), required=True)
    p_fit.add_argument("--data", nargs="+", required=True)
    p_fit.add_argument("--report", help="write the fit report here (default stdout)")
    p_fit.add_argument("--params-out", help="write estimated parameters as YAML")
    p_fit.add_argument("--init-perturb", type=float, default=0.2,
                       help="relative perturbation of the nominal initial guess")
    p_fit.add_argument("--seed", type=int, default=0)

    p_val = sysid_sub.add_parser("validate", help="score parameters on datasets")
    p_val.add_argument("--structure", choices=tuple(sysid.STRUCTURES), required=True)
    p_val.add_argument("--params", required=True, help="parameter YAML from fit")
    p_val.add_argument("--data", nargs="+", required=True)
    return parser


def _cmd_simulate(args) -> int:
    if args.scenario in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[args.scenario]()
    else:
        path = Path(args.scenario)
        if not path.exists():
            print(f"error: unknown scenario {args.scenario!r} "
                  f"(builtins: {', '.join(sorted(BUILTIN_SCENARIOS))})", file=sys.stderr)
            return 2
        scenario = cfgio.load_scenario(path)
    log = sim.run(scenario)
    sim.emit_csv(log, args.out)
    if args.report:
        print(sim.emit_report(log))
    degraded = int(np.count_nonzero(log.degraded))
    cut_short = log.end_reason != sim.END_COMPLETED
    ended = f"; run cut short: {log.end_reason}" if cut_short else ""
    print(f"wrote {args.out}: {log.time.shape[0]} samples, "
          f"{degraded} degraded periods{ended}")
    if args.strict and (degraded > 0 or cut_short):
        return 1
    return 0


def _cmd_list_scenarios() -> int:
    for name in sorted(BUILTIN_SCENARIOS):
        print(name)
    return 0


def _cmd_sysid_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = md.default_params()
    datasets = sysid.make_training_sets(params, args.structure)
    for i, ds in enumerate(datasets):
        if args.noise:
            ds = sysid.add_output_noise(ds, seed=args.seed * 1000 + i)
        path = out_dir / f"{args.structure}_set_{i:02d}.csv"
        sysid.save_dataset(ds, path)
        print(f"wrote {path}")
    return 0


def _cmd_sysid_fit(args) -> int:
    datasets = [sysid.load_dataset(p) for p in args.data]
    nominal = getattr(md.default_params(), sysid.STRUCTURES[args.structure].params_field)
    init = sysid.perturb_params(nominal, args.init_perturb, seed=args.seed)
    report = sysid.estimate(args.structure, init, datasets)
    text = sysid.report_text(report)
    if args.report:
        Path(args.report).write_text(text)
        print(f"wrote {args.report}")
    else:
        print(text)
    if args.params_out:
        payload = {name: float(v) for name, v in zip(report.param_names, report.params)}
        Path(args.params_out).write_text(yaml.safe_dump({args.structure: payload}))
        print(f"wrote {args.params_out}")
    return 0 if report.converged else 1


def _cmd_sysid_validate(args) -> int:
    datasets = [sysid.load_dataset(p) for p in args.data]
    node = yaml.safe_load(Path(args.params).read_text())
    if args.structure not in node:
        print(f"error: {args.params} has no {args.structure!r} section", file=sys.stderr)
        return 2
    vec = np.array([float(node[args.structure][n])
                    for n in sysid.STRUCTURES[args.structure].param_names])
    rmse = sysid.validate(args.structure, vec, datasets)
    print("validation RMSE per output:")
    for name, val in rmse.items():
        print(f"  {name:<8} {val:.6g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "list-scenarios":
        return _cmd_list_scenarios()
    if args.command == "sysid":
        if args.sysid_command == "generate":
            return _cmd_sysid_generate(args)
        if args.sysid_command == "fit":
            return _cmd_sysid_fit(args)
        if args.sysid_command == "validate":
            return _cmd_sysid_validate(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
