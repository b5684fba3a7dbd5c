"""Command-line interface: the operational tools of the paper's prototype.

Subcommands mirror the utilities the prototype relied on:

* ``keygen``   — the trusted initialization of §4.3: deal zone/coin/auth
  keys for an (n, t) deployment and write one key file per replica.
* ``signzone`` — the "special command ... to sign the zone data using the
  distributed key" (§4.3): sign a master file with key shares.
* ``verifyzone`` — DNSSEC-verify every SIG in a signed zone file.
* ``dig``      — resolve a name against a simulated deployment.
* ``nsupdate`` — add/delete records against a simulated deployment.
* ``bench``    — run one Table 2 cell and print read/add/delete latency.
* ``chaos``    — run seed-replayable Byzantine fault-injection scenarios
  and check the paper's G1/G2/G3 goals; failures print the replaying seed.
* ``explore``  — systematically enumerate message interleavings of the
  replicated protocols (DPOR model checking), replay counterexample
  schedule files, and dynamically confirm static race findings.

Run ``python -m repro.cli <subcommand> --help`` for details.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.config import ServiceConfig
from repro.dns import constants as c


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, default=4, help="number of replicas")
    parser.add_argument("-t", type=int, default=1, help="corruptions tolerated")
    parser.add_argument(
        "--protocol",
        choices=("basic", "optproof", "optte"),
        default="optte",
        help="threshold signing protocol",
    )
    parser.add_argument(
        "--wan",
        action="store_true",
        help="use the paper's Figure 1 WAN topology instead of the LAN",
    )
    parser.add_argument(
        "--corrupt",
        type=int,
        default=0,
        metavar="K",
        help="simulate K corrupted servers (paper placement)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="B",
        help="order up to B client payloads per agreement instance (1 = off)",
    )
    parser.add_argument(
        "--no-answer-cache",
        action="store_true",
        help="disable the signed-answer cache",
    )
    parser.add_argument(
        "--crypto-executor",
        choices=("serial", "pool"),
        default="serial",
        help="crypto execution plane: inline (serial) or process pool",
    )
    parser.add_argument(
        "--crypto-workers",
        type=int,
        default=4,
        metavar="W",
        help="worker processes for the pooled crypto plane",
    )


def _build_service(args: argparse.Namespace):
    from repro.core.service import ReplicatedNameService
    from repro.sim.machines import lan_setup, paper_setup

    topology = paper_setup(args.n) if args.wan else lan_setup(args.n)
    service = ReplicatedNameService(
        ServiceConfig(
            n=args.n,
            t=args.t,
            signing_protocol=args.protocol,
            batch_size=args.batch_size,
            answer_cache=not args.no_answer_cache,
            crypto_executor=args.crypto_executor,
            crypto_workers=args.crypto_workers,
        ),
        topology=topology,
        zone_text=_load_zone_text(args),
    )
    if args.corrupt:
        service.corrupt_paper_style(args.corrupt)
    return service


def _load_zone_text(args: argparse.Namespace) -> str:
    from repro.core.service import DEFAULT_ZONE

    zone_file = getattr(args, "zone_file", None)
    if zone_file:
        with open(zone_file, "r", encoding="utf-8") as handle:
            return handle.read()
    return DEFAULT_ZONE


def cmd_keygen(args: argparse.Namespace) -> int:
    from repro.core.keytool import generate_deployment, save_replica_keys

    config = ServiceConfig(n=args.n, t=args.t)
    deployment = generate_deployment(
        config,
        zone_bits=args.bits,
        auth_bits=args.bits,
        use_demo_primes=not args.fresh_primes,
    )
    os.makedirs(args.out, exist_ok=True)
    for keys in deployment.replicas:
        path = os.path.join(args.out, f"replica-{keys.index}.keys")
        save_replica_keys(keys, path)
        print(f"wrote {path}")
    key_record = deployment.zone_key_record
    print(
        f"zone key: {deployment.zone_public.modulus.bit_length()}-bit RSA, "
        f"({config.n},{config.t})-shared, key tag {key_record.key_tag()}"
    )
    print("distribute each file to its replica over a secure channel (§4.3)")
    return 0


def cmd_signzone(args: argparse.Namespace) -> int:
    from repro.core.keytool import generate_deployment
    from repro.core.service import local_threshold_signer
    from repro.dns import dnssec
    from repro.dns.zonefile import parse_zone_file, write_zone_file

    config = ServiceConfig(n=args.n, t=args.t)
    deployment = generate_deployment(config, zone_bits=args.bits)
    zone = parse_zone_file(args.zone_file)
    key_record = deployment.zone_key_record
    zone.add_rdata(zone.origin, c.TYPE_KEY, 3600, key_record)
    signer = local_threshold_signer(
        deployment.zone_public, [r.zone_share for r in deployment.replicas]
    )
    count = dnssec.sign_zone_locally(zone, key_record, signer)
    out = args.out or args.zone_file + ".signed"
    write_zone_file(zone, out)
    print(f"signed {count} RRsets with the ({args.n},{args.t})-threshold key")
    print(f"wrote {out}")
    return 0


def cmd_verifyzone(args: argparse.Namespace) -> int:
    from repro.dns import dnssec
    from repro.dns.zonefile import parse_zone_file

    zone = parse_zone_file(args.zone_file)
    key_rrset = dnssec.zone_key_rrset(zone)
    if key_rrset is None:
        print("error: zone has no apex KEY record", file=sys.stderr)
        return 1
    key = key_rrset.rdatas[0]
    count = dnssec.verify_zone(zone, key)  # type: ignore[arg-type]
    print(f"OK: {count} signatures verified against key tag {key.key_tag()}")  # type: ignore[union-attr]
    return 0


def cmd_dig(args: argparse.Namespace) -> int:
    service = _build_service(args)
    rtype = c.type_from_text(args.rtype)
    ops = [service.query(args.name, rtype) for _ in range(max(1, args.repeat))]
    op = ops[-1]
    print(op.response.to_text())
    if len(ops) > 1:
        times = ", ".join(f"{o.latency * 1000:.0f}" for o in ops)
        hits = sum(r.stats["answer_cache_hits"] for r in service.replicas)
        print(f";; query times (ms): {times}; answer-cache hits: {hits}")
    print(
        f";; simulated query time: {op.latency * 1000:.0f} ms; "
        f"signatures verified: {op.verified}"
    )
    return 0 if op.response.rcode == c.RCODE_NOERROR else 1


def cmd_nsupdate(args: argparse.Namespace) -> int:
    service = _build_service(args)
    if args.action == "add":
        if not args.rdata:
            print("error: add needs rdata", file=sys.stderr)
            return 2
        read_op, op, total = service.nsupdate_add(
            args.name, c.type_from_text(args.rtype), args.ttl, " ".join(args.rdata)
        )
    else:
        read_op, op, total = service.nsupdate_delete(args.name)
    print(f"rcode: {c.rcode_to_text(op.response.rcode)}")
    print(
        f"simulated time: {total:.2f} s "
        f"(read {read_op.latency:.2f} + update {op.latency:.2f})"
    )
    print(f"replica states consistent: {service.states_consistent()}")
    return 0 if op.response.rcode == c.RCODE_NOERROR else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from statistics import mean

    from repro.core.service import ReplicatedNameService
    from repro.sim.machines import lan_setup, paper_setup

    label = args.setup
    reads, adds, deletes = [], [], []
    for seed in range(args.repetitions):
        topology = (
            lan_setup(args.n) if label.endswith("*") or not args.wan
            else paper_setup(args.n)
        )
        service = ReplicatedNameService(
            ServiceConfig(
                n=args.n,
                t=args.t,
                signing_protocol=args.protocol,
                batch_size=args.batch_size,
                answer_cache=not args.no_answer_cache,
            ),
            topology=topology,
            seed=seed,
        )
        if args.corrupt:
            service.corrupt_paper_style(args.corrupt)
        reads.append(service.query("www.example.com.", c.TYPE_A).latency)
        _, _, add = service.nsupdate_add(
            "bench.example.com.", c.TYPE_A, 3600, "192.0.2.99"
        )
        _, _, delete = service.nsupdate_delete("bench.example.com.")
        adds.append(add)
        deletes.append(delete)
    print(
        f"(n={args.n}, k={args.corrupt}) {args.protocol}: "
        f"read {mean(reads):.3f} s, add {mean(adds):.2f} s, "
        f"delete {mean(deletes):.2f} s  ({args.repetitions} runs)"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import SCENARIOS, run_scenario

    try:
        n_text, t_text = args.cluster.split(",")
        cluster = (int(n_text), int(t_text))
    except ValueError:
        print(f"error: --cluster must look like 4,1 (got {args.cluster!r})",
              file=sys.stderr)
        return 2
    if args.scenario == "all":
        names = sorted(SCENARIOS)
    elif args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        print(
            f"error: unknown scenario {args.scenario!r}; "
            f"choose from {sorted(SCENARIOS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    seeds = list(range(args.seed, args.seed + max(1, args.seeds)))
    failures = 0
    for name in names:
        for seed in seeds:
            result = run_scenario(name, cluster=cluster, seed=seed)
            status = "ok" if result.ok else "FAIL"
            print(
                f"chaos {name} cluster={cluster[0]},{cluster[1]} seed={seed} "
                f"{status} transcript={result.transcript_hash}"
            )
            if args.show_transcript:
                sys.stdout.write(result.transcript)
            if not result.ok:
                failures += 1
                for violation in result.violations:
                    print(f"  {violation}")
                print(
                    "  replay: python -m repro.cli chaos "
                    f"--seed {seed} --scenario {name} "
                    f"--cluster {cluster[0]},{cluster[1]} --show-transcript"
                )
                if args.out:
                    os.makedirs(args.out, exist_ok=True)
                    path = os.path.join(
                        args.out,
                        f"chaos-{name}-{cluster[0]}-{cluster[1]}-{seed}.txt",
                    )
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(result.transcript)
                    print(f"  transcript written to {path}")
    if failures:
        print(f"{failures} chaos run(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_keytrap(args: argparse.Namespace) -> int:
    from repro.chaos import run_keytrap_smoke
    from repro.config import ServiceConfig
    from repro.dns.resolver import ValidationBudget

    try:
        n_text, t_text = args.cluster.split(",")
        cluster = (int(n_text), int(t_text))
    except ValueError:
        print(f"error: --cluster must look like 4,1 (got {args.cluster!r})",
              file=sys.stderr)
        return 2
    defaults = ServiceConfig(n=1, t=0)
    budget = ValidationBudget(
        max_sig_checks=args.max_sig_checks or defaults.resolver_max_sig_checks,
        max_key_trials=args.max_key_trials or defaults.resolver_max_key_trials,
    )
    result = run_keytrap_smoke(
        seeds=max(1, args.seeds),
        base_seed=args.seed,
        budget=budget,
        cluster=cluster,
        liveness=not args.no_liveness,
    )
    for report in result.reports:
        status = "ok" if report.ok else "FAIL"
        print(
            f"keytrap seed={report.seed} {status} "
            f"sig_checks<={report.max_sig_checks}/{budget.max_sig_checks} "
            f"key_trials<={report.max_key_trials}/{budget.max_key_trials} "
            f"benign_verified={report.benign_verified}"
        )
    if not args.no_liveness:
        status = "ok" if result.liveness_ok else "FAIL"
        print(f"keytrap liveness {status}: {result.liveness_detail}")
    if not result.ok:
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "  replay: python -m repro.cli keytrap "
            f"--seed {args.seed} --seeds {args.seeds} "
            f"--cluster {cluster[0]},{cluster[1]}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import baseline as bl
    from repro.lint import mypy_ratchet, report
    from repro.lint.framework import (
        STALE_SUPPRESSION_RULE,
        LintConfig,
        find_repo_root,
        load_rules,
        run_paths_ctx,
        stale_suppression_findings,
    )
    from repro.taint import TAINT_RULES

    # Anchor to the repository root (marker files, src layout) so the
    # command behaves identically from any subdirectory; --root overrides.
    root = Path(args.root).resolve() if args.root else find_repo_root()
    rules = load_rules()
    if args.list_rules:
        from repro.analysis import QUORUM_RULES, RACE_RULES

        print(report.render_rule_catalog(rules))
        for rule_id, (summary, _description) in sorted(TAINT_RULES.items()):
            print(f"{rule_id}  [{'taint':>13}]  {summary}")
        for rule_id, (summary, _description) in sorted(QUORUM_RULES.items()):
            print(f"{rule_id}  [{'quorum':>13}]  {summary}")
        for rule_id, (summary, _description) in sorted(RACE_RULES.items()):
            print(f"{rule_id}  [{'races':>13}]  {summary}")
        print(
            f"{STALE_SUPPRESSION_RULE}  [{'framework':>13}]  "
            "suppression comment no longer shields any finding"
        )
        return 0

    config = LintConfig.from_pyproject(root / "pyproject.toml")
    exit_code = 0

    if args.mypy_strict:
        code, output = mypy_ratchet.check(root)
        print(output)
        exit_code = max(exit_code, code)
        if not args.paths and not (args.check_baseline or args.update_baseline):
            return exit_code

    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    findings, contexts = run_paths_ctx(paths, root, config=config)

    active_rules = [rule.rule_id for rule in rules]
    if args.taint:
        from repro.taint import analyze_files as taint_analyze
        from repro.taint.indexer import module_files

        shared_suppressions = {
            path: ctx.suppressions for path, ctx in contexts.items()
        }
        findings.extend(
            taint_analyze(
                module_files(paths, root),
                config=config,
                suppressions=shared_suppressions,
            )
        )
        active_rules.extend(TAINT_RULES)

    if args.quorum or args.races:
        from repro.analysis import (
            QUORUM_RULES,
            RACE_RULES,
            analyze_quorum,
            analyze_races,
        )
        from repro.taint.indexer import ProgramIndex, module_files

        files = module_files(paths, root)
        index = ProgramIndex.build(files)  # shared by both analyzers
        shared_suppressions = {
            path: ctx.suppressions for path, ctx in contexts.items()
        }
        if args.quorum:
            findings.extend(
                analyze_quorum(
                    files,
                    config=config,
                    suppressions=shared_suppressions,
                    index=index,
                )
            )
            active_rules.extend(QUORUM_RULES)
        if args.races:
            findings.extend(
                analyze_races(
                    files,
                    config=config,
                    suppressions=shared_suppressions,
                    index=index,
                )
            )
            active_rules.extend(RACE_RULES)

    # Stale-suppression reporting must run after every producer above has
    # marked the comments it actually used.
    for ctx in contexts.values():
        findings.extend(stale_suppression_findings(ctx, active_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if args.sarif:
        from repro.taint import render_sarif

        catalog = {
            rule.rule_id: (rule.summary, getattr(rule, "description", rule.summary))
            for rule in rules
        }
        catalog.update(TAINT_RULES)
        from repro.analysis import QUORUM_RULES, RACE_RULES

        catalog.update(QUORUM_RULES)
        catalog.update(RACE_RULES)
        catalog[STALE_SUPPRESSION_RULE] = (
            "stale suppression comment",
            "A repro-lint suppression comment that no longer shields any "
            "finding; delete it so the suppression set ratchets down.",
        )
        sarif_path = Path(args.sarif)
        sarif_path.write_text(render_sarif(findings, catalog), encoding="utf-8")
        print(f"SARIF written to {sarif_path}")

    baseline_path = Path(args.baseline) if args.baseline else root / "lint-baseline.json"

    try:
        if args.update_baseline:
            old = bl.load_baseline(baseline_path)
            new = bl.update_baseline(findings, old, allow_growth=args.allow_growth)
            bl.save_baseline(baseline_path, new)
            total = sum(sum(rules.values()) for rules in new.values())
            print(f"baseline written to {baseline_path} ({total} finding(s) tracked)")
            return exit_code
        if args.check_baseline or baseline_path.is_file():
            problems = bl.check_against_baseline(findings, bl.load_baseline(baseline_path))
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            print(
                f"lint clean: {len(findings)} baselined finding(s), "
                "0 new, 0 stale"
            )
            return exit_code
    except bl.BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        print(report.render_json(findings))
    else:
        print(report.render_text(findings))
    return max(exit_code, 1 if findings else 0)


def cmd_explore(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.explore import (
        EXPLORE_RULES,
        confirm_races,
        explore_protocol,
        replay_file,
        save_schedule,
    )
    from repro.lint import report
    from repro.taint.sarif import render_sarif

    if args.list_rules:
        for rule_id, (summary, _description) in sorted(EXPLORE_RULES.items()):
            print(f"{rule_id}  [{'explore':>13}]  {summary}")
        return 0

    if args.replay:
        outcome = replay_file(Path(args.replay))
        print(f"replayed {args.replay}")
        print(f"  fingerprint:     {outcome.fingerprint}")
        print(f"  transcript hash: {outcome.transcript_hash}")
        if outcome.problems:
            for problem in outcome.problems:
                print(f"  violation: {problem}")
        else:
            print("  no violation observed")
        print("  reproduced" if outcome.reproduced else "  NOT reproduced")
        return 0 if outcome.reproduced else 1

    try:
        n_str, t_str = args.cluster.split(",")
        n, t = int(n_str), int(t_str)
    except ValueError:
        print(f"error: --cluster must be 'n,t', got {args.cluster!r}", file=sys.stderr)
        return 2

    if args.confirm_races:
        from repro.lint.framework import find_repo_root
        from repro.taint.indexer import module_files

        root = Path(args.root).resolve() if args.root else find_repo_root()
        paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
        files = module_files(paths, root)
        outcomes = confirm_races(
            files,
            max_schedules=args.max_schedules or 5_000,
            deadline_s=args.deadline,
        )
        findings = [o.finding() for o in outcomes]
        if args.format == "json":
            print(report.render_json(findings))
        else:
            if not outcomes:
                print("confirm-races: no Y601-Y604 findings to confirm")
            for o in outcomes:
                f = o.finding()
                print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if args.sarif:
            Path(args.sarif).write_text(
                render_sarif(findings, EXPLORE_RULES), encoding="utf-8"
            )
            print(f"SARIF written to {args.sarif}")
        return 1 if any(o.status == "confirmed" for o in outcomes) else 0

    if args.protocol is None:
        print("error: --protocol is required (or --replay/--confirm-races/--list-rules)", file=sys.stderr)
        return 2
    try:
        result = explore_protocol(
            args.protocol,
            mode=args.mode or "",
            n=n,
            t=t,
            strategies=args.strategy or None,
            bound=args.bound,
            max_schedules=args.max_schedules,
            max_steps=args.max_steps,
            deadline_s=args.deadline,
            stop_on_first=args.stop_on_first,
            use_dpor=not args.no_dpor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, sf in enumerate(result.counterexamples):
            path = out_dir / (
                f"{result.protocol}-{sf.strategy or 'honest'}-{sf.kind}-{i}.schedule.json"
            )
            save_schedule(sf, path)
            print(f"counterexample written to {path}")

    findings = result.findings()
    if args.format == "json":
        payload = result.to_dict()
        payload["findings"] = json.loads(report.render_json(findings))
        print(json.dumps(payload, indent=2))
    else:
        for line in result.summary_lines():
            print(line)
    if args.sarif:
        Path(args.sarif).write_text(
            render_sarif(findings, EXPLORE_RULES), encoding="utf-8"
        )
        print(f"SARIF written to {args.sarif}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Secure Distributed DNS tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="deal threshold keys for a deployment")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("-t", type=int, default=1)
    p.add_argument(
        "--bits", type=int, default=1024,
        help="modulus bits of the zone, coin and authenticator keys",
    )
    p.add_argument("--out", default="keys", help="output directory")
    p.add_argument(
        "--fresh-primes",
        action="store_true",
        help="generate fresh safe primes (slow) instead of the demo pool",
    )
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("signzone", help="sign a zone file with a threshold key")
    p.add_argument("zone_file")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("-t", type=int, default=1)
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_signzone)

    p = sub.add_parser("verifyzone", help="verify all SIGs in a signed zone file")
    p.add_argument("zone_file")
    p.set_defaults(func=cmd_verifyzone)

    p = sub.add_parser("dig", help="query a simulated deployment")
    p.add_argument("name")
    p.add_argument("rtype", nargs="?", default="A")
    p.add_argument("--zone-file", default=None)
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="issue the query N times (repeats exercise the answer cache)",
    )
    _add_service_args(p)
    p.set_defaults(func=cmd_dig)

    p = sub.add_parser("nsupdate", help="update a simulated deployment")
    p.add_argument("action", choices=("add", "delete"))
    p.add_argument("name")
    p.add_argument("rtype", nargs="?", default="A")
    p.add_argument("rdata", nargs="*")
    p.add_argument("--ttl", type=int, default=300)
    p.add_argument("--zone-file", default=None)
    _add_service_args(p)
    p.set_defaults(func=cmd_nsupdate)

    p = sub.add_parser(
        "chaos",
        help="run seed-replayable Byzantine chaos scenarios and check G1/G2/G3",
    )
    p.add_argument("--seed", type=int, default=0, help="first (or only) seed")
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="run K consecutive seeds starting at --seed",
    )
    p.add_argument(
        "--scenario",
        default="mixed",
        help="scenario name or 'all' (see repro.chaos.SCENARIOS)",
    )
    p.add_argument(
        "--cluster",
        default="4,1",
        metavar="N,T",
        help="cluster size as n,t (e.g. 4,1 or 7,2)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write failing-run transcripts into DIR",
    )
    p.add_argument(
        "--show-transcript",
        action="store_true",
        help="print the full deterministic transcript of every run",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "keytrap",
        help="KeyTrap adversarial-zone smoke: budget caps + replica liveness",
    )
    p.add_argument("--seed", type=int, default=0, help="first (or only) seed")
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="run K consecutive seeds starting at --seed",
    )
    p.add_argument(
        "--cluster",
        default="4,1",
        metavar="N,T",
        help="cluster for the liveness probe (e.g. 4,1)",
    )
    p.add_argument(
        "--max-sig-checks",
        type=int,
        default=None,
        help="override the per-response signature-check budget",
    )
    p.add_argument(
        "--max-key-trials",
        type=int,
        default=None,
        help="override the per-response key-trial budget",
    )
    p.add_argument(
        "--no-liveness",
        action="store_true",
        help="skip the replicated-service liveness probe",
    )
    p.set_defaults(func=cmd_keytrap)

    p = sub.add_parser("bench", help="run one Table 2 cell")
    p.add_argument("--setup", default="(4,0)")
    p.add_argument("--repetitions", type=int, default=3)
    _add_service_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "lint",
        help="run the determinism/protocol-safety analyzer (DESIGN.md §5c)",
    )
    p.add_argument(
        "paths", nargs="*", help="files/directories to analyze (default: src/repro)"
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-discovered from marker files)",
    )
    p.add_argument(
        "--taint",
        action="store_true",
        help="also run the interprocedural Byzantine-taint analysis (T401-T408)",
    )
    p.add_argument(
        "--quorum",
        action="store_true",
        help="also run symbolic quorum-arithmetic verification (Q501-Q505): "
        "every n/t threshold must match a declared obligation proven over "
        "all admissible (n, t) with n >= 3t+1",
    )
    p.add_argument(
        "--races",
        action="store_true",
        help="also run asyncio yield-point atomicity checking (Y601-Y604) "
        "over dispatcher-reachable async handlers",
    )
    p.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="write findings as a SARIF 2.1.0 log to FILE",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file (default: <root>/lint-baseline.json)",
    )
    p.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail on findings not covered by the baseline and on stale entries",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings (ratchets down only)",
    )
    p.add_argument(
        "--allow-growth",
        action="store_true",
        help="let --update-baseline raise per-file/per-rule counts",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    p.add_argument(
        "--mypy-strict",
        action="store_true",
        help="check the per-module mypy strictness ratchet",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "explore",
        help="systematic interleaving exploration (DPOR model checking, DESIGN.md §5j)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files to analyze with --confirm-races (default: src/repro)",
    )
    p.add_argument(
        "--protocol",
        choices=["rbc", "aba", "abc", "e2e"],
        default=None,
        help="which protocol layer to explore",
    )
    p.add_argument(
        "--mode",
        choices=["full", "digest", "erasure"],
        default=None,
        help="dissemination mode (rbc/abc/e2e; default: full for rbc, digest otherwise)",
    )
    p.add_argument(
        "--cluster",
        default="4,1",
        metavar="N,T",
        help="cluster size as 'n,t' (default: 4,1)",
    )
    p.add_argument(
        "--strategy",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this Byzantine strategy (repeatable; default: all)",
    )
    p.add_argument(
        "--bound",
        type=int,
        default=None,
        help="delay bound: max deviations from the default schedule "
        "(default: unbounded; required for --protocol e2e)",
    )
    p.add_argument(
        "--max-schedules",
        type=int,
        default=None,
        help="stop after this many explored schedules",
    )
    p.add_argument(
        "--max-steps", type=int, default=None, help="stop after this many executed steps"
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per strategy",
    )
    p.add_argument(
        "--stop-on-first",
        action="store_true",
        help="stop at the first violation instead of enumerating all",
    )
    p.add_argument(
        "--no-dpor",
        action="store_true",
        help="disable partial-order reduction (naive enumeration, for comparison)",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a counterexample schedule file and exit",
    )
    p.add_argument(
        "--confirm-races",
        action="store_true",
        help="dynamically confirm static Y601-Y604 findings (X702/X703)",
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root for --confirm-races (default: auto-discovered)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write counterexample schedule files to DIR",
    )
    p.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="write findings as a SARIF 2.1.0 log to FILE",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the exploration rule catalog and exit",
    )
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
