"""Command-line policy tooling.

The paper's §6.3 lesson — administrators found raw RSL policies
unnatural — motivates shipping the analysis tools behind a CLI::

    python -m repro.cli check vo.policy
    python -m repro.cli evaluate vo.policy --user "/O=Grid/CN=Bo" \\
        --action start --rsl "&(executable=test1)(count=2)"
    python -m repro.cli capabilities vo.policy --user "/O=Grid/CN=Bo"
    python -m repro.cli authz explain vo.policy --subject "/O=Grid/CN=Bo"
    python -m repro.cli diff old.policy new.policy
    python -m repro.cli obs spans.jsonl --trace req-000001
    python -m repro.cli obs metrics.jsonl --format prometheus
    python -m repro.cli accounting usage.json --account alice
    python -m repro.cli demo

Exit codes: 0 success / permit, 1 denial or lint errors, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis import (
    LintLevel,
    capabilities,
    diff_policies,
    lint,
)
from repro.core.attributes import Action
from repro.core.errors import PolicyParseError
from repro.core.evaluator import PolicyEvaluator
from repro.core.parser import parse_policy_file
from repro.core.request import AuthorizationRequest
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.parser import parse_specification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Fine-grain Grid authorization policy tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="parse and lint a policy file")
    check.add_argument("policy", help="path to the policy file")
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )

    evaluate = commands.add_parser(
        "evaluate", help="evaluate one request against a policy file"
    )
    evaluate.add_argument("policy")
    evaluate.add_argument("--user", required=True, help="requester DN")
    evaluate.add_argument(
        "--action",
        default="start",
        choices=[action.value for action in Action],
    )
    evaluate.add_argument("--rsl", required=True, help="job description RSL")
    evaluate.add_argument(
        "--jobowner", default=None, help="job initiator DN (management requests)"
    )

    caps = commands.add_parser(
        "capabilities", help="list everything a user is granted"
    )
    caps.add_argument("policy")
    caps.add_argument("--user", required=True)

    diff = commands.add_parser("diff", help="diff two policy files")
    diff.add_argument("old")
    diff.add_argument("new")

    export = commands.add_parser(
        "xacml-export", help="translate a policy file to XACML XML"
    )
    export.add_argument("policy")
    export.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    audit = commands.add_parser(
        "audit-summary", help="summarize an exported audit log (JSON lines)"
    )
    audit.add_argument("log", help="path to the audit .jsonl file")
    audit.add_argument(
        "--metrics",
        default=None,
        metavar="SNAPSHOT",
        help=(
            "also report per-source latency percentiles from an "
            "exported metrics snapshot (.jsonl)"
        ),
    )

    obs = commands.add_parser(
        "obs", help="inspect exported telemetry (metrics snapshots, traces)"
    )
    obs.add_argument(
        "path", help="exported telemetry file (metrics snapshot or span .jsonl)"
    )
    obs.add_argument(
        "--format",
        default=None,
        choices=["prometheus", "jsonl", "table"],
        dest="format",
        help="render PATH as a metrics snapshot in this format",
    )
    obs.add_argument(
        "--family",
        default=None,
        metavar="NAME",
        help="restrict metrics output to one family (exit 1 if absent)",
    )
    obs.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_ID",
        help="render one trace tree from a span export",
    )
    obs.add_argument(
        "--summary",
        action="store_true",
        help="one line per trace in a span export",
    )

    health = commands.add_parser(
        "health",
        help=(
            "render an exported health report (JSON) or anomaly "
            "flight-recorder dump (.jsonl)"
        ),
    )
    health.add_argument(
        "path", help="health-report JSON or flight-dump JSONL file"
    )
    health.add_argument(
        "--json",
        action="store_true",
        help="re-emit the report/dump as JSON instead of a table",
    )
    health.add_argument(
        "--alerts",
        action="store_true",
        help="print only the alerts of a health report",
    )

    accounting = commands.add_parser(
        "accounting",
        help=(
            "summarize exported per-account usage "
            "(scheduler.usage_summary() JSON)"
        ),
    )
    accounting.add_argument(
        "usage", help="path to the usage-summary JSON export"
    )
    accounting.add_argument(
        "--account",
        default=None,
        help="report a single account instead of all",
    )
    accounting.add_argument(
        "--json",
        action="store_true",
        help="re-emit the (filtered) summary as JSON instead of a table",
    )

    capability = commands.add_parser(
        "capability",
        help="inspect a signed capability token (JSON export)",
    )
    capability_commands = capability.add_subparsers(
        dest="capability_command", required=True
    )
    inspect = capability_commands.add_parser(
        "inspect", help="print a token's scope, epochs and verdicts"
    )
    inspect.add_argument("token", help="path to the token JSON file")
    inspect.add_argument(
        "--key",
        default=None,
        metavar="HEX",
        help="HMAC key (hex) to verify the signature against",
    )
    inspect.add_argument(
        "--host",
        default=None,
        help="derive the verification key from this resource host",
    )
    inspect.add_argument(
        "--now",
        type=float,
        default=None,
        help="evaluate expiry at this simulated time",
    )

    authz = commands.add_parser(
        "authz", help="reverse-index authorization queries"
    )
    authz_commands = authz.add_subparsers(dest="authz_command", required=True)
    explain = authz_commands.add_parser(
        "explain",
        help="everything a subject can reach, with provenance",
    )
    explain.add_argument(
        "policies", nargs="+", help="policy file(s), one per source"
    )
    explain.add_argument("--subject", required=True, help="requester DN")
    explain.add_argument(
        "--job",
        default=None,
        metavar="RSL",
        help="also pre-check this job description for the subject",
    )
    explain.add_argument(
        "--action",
        default="start",
        choices=[action.value for action in Action],
        help="action for the --job pre-check",
    )
    explain.add_argument(
        "--algorithm",
        default="all",
        choices=["all", "any"],
        help=(
            "combination across policy files: all=all-must-permit, "
            "any=permit-overrides-not-applicable"
        ),
    )

    policy_cmd = commands.add_parser(
        "policy", help="versioned policy store: publish, log, rollback"
    )
    policy_commands = policy_cmd.add_subparsers(
        dest="policy_command", required=True
    )
    publish = policy_commands.add_parser(
        "publish", help="validate and publish a policy bundle"
    )
    publish.add_argument(
        "--store", required=True, metavar="LOG",
        help="path to the store's JSONL publish log",
    )
    publish.add_argument(
        "sources", nargs="+", metavar="NAME=PATH",
        help="policy sources, e.g. vo=vo.policy local=local.policy",
    )
    log = policy_commands.add_parser(
        "log", help="list the published snapshots, oldest first"
    )
    log.add_argument("--store", required=True, metavar="LOG")
    rollback = policy_commands.add_parser(
        "rollback", help="re-publish earlier content as a new epoch"
    )
    rollback.add_argument("--store", required=True, metavar="LOG")
    rollback.add_argument(
        "--to", default=None, metavar="DIGEST",
        help="target snapshot digest (prefix allowed)",
    )
    rollback.add_argument(
        "--steps", type=int, default=1,
        help="publishes to roll back when --to is not given (default 1)",
    )

    recover = commands.add_parser(
        "recover", help="replay a completed-job spill file and report"
    )
    recover.add_argument("spill", help="path to the JSONL spill file")
    recover.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )

    commands.add_parser("demo", help="run a small end-to-end demonstration")
    return parser


def _cmd_check(args) -> int:
    policy = parse_policy_file(args.policy)
    findings = lint(policy)
    for finding in findings:
        print(finding)
    errors = [f for f in findings if f.level is LintLevel.ERROR]
    print(
        f"{len(policy)} statement(s), {len(findings)} finding(s), "
        f"{len(errors)} error(s)"
    )
    if errors or (args.strict and findings):
        return 1
    return 0


def _cmd_evaluate(args) -> int:
    policy = parse_policy_file(args.policy)
    spec = parse_specification(args.rsl)
    action = Action.parse(args.action)
    if action is Action.START:
        request = AuthorizationRequest.start(args.user, spec)
    else:
        owner = args.jobowner if args.jobowner else args.user
        request = AuthorizationRequest.manage(
            args.user, action, spec, jobowner=owner
        )
    decision = PolicyEvaluator(policy).evaluate(request)
    print(decision)
    return 0 if decision.is_permit else 1


def _cmd_capabilities(args) -> int:
    policy = parse_policy_file(args.policy)
    granted = capabilities(policy, args.user)
    if not granted:
        print(f"{args.user}: no grants (default deny)")
        return 1
    for capability in granted:
        print(capability)
    return 0


def _cmd_diff(args) -> int:
    old = parse_policy_file(args.old)
    new = parse_policy_file(args.new)
    diff = diff_policies(old, new)
    print(diff)
    return 0


def _cmd_xacml_export(args) -> int:
    from repro.xacml import policy_to_xml, xacml_from_policy

    policy = parse_policy_file(args.policy)
    text = policy_to_xml(xacml_from_policy(policy))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_audit_summary(args) -> int:
    from repro.gram.audit import load_audit_log, summarize

    try:
        entries = load_audit_log(args.log)
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    print(summarize(entries))
    if args.metrics:
        from repro.obs import load_snapshot, source_latency_report

        try:
            snapshot = load_snapshot(args.metrics)
        except OSError as exc:
            print(f"error: cannot read {args.metrics}: {exc}", file=sys.stderr)
            return 2
        report = source_latency_report(snapshot)
        if report:
            print(report)
        else:
            print("no per-source latency metrics in snapshot")
    return 0


def _metrics_table(snapshot) -> str:
    from repro.obs import histogram_quantile

    lines = [f"{'family':<36} {'type':<10} {'series':>6} summary"]
    for family in snapshot:
        series = family.get("series", ())
        if family.get("type") == "histogram":
            count = sum(entry.get("count", 0) for entry in series)
            buckets = {}
            for entry in series:
                for bound, value in entry.get("buckets", ()):
                    buckets[bound] = buckets.get(bound, 0) + value
            pairs = sorted(buckets.items())
            summary = (
                f"n={count} "
                f"p50={histogram_quantile(pairs, 0.5):.4f} "
                f"p99={histogram_quantile(pairs, 0.99):.4f}"
            )
        else:
            total = sum(entry.get("value", 0.0) for entry in series)
            summary = f"sum={total:g}"
        lines.append(
            f"{family.get('name', '?'):<36} {family.get('type', '?'):<10} "
            f"{len(series):>6} {summary}"
        )
    return "\n".join(lines)


def _cmd_obs(args) -> int:
    from repro.obs import (
        load_snapshot,
        load_spans,
        prometheus_text,
        render_trace_tree,
        snapshot_jsonl,
        trace_summary,
    )

    wants_metrics = args.format is not None or args.family is not None
    try:
        if wants_metrics:
            snapshot = load_snapshot(args.path)
            if args.family is not None:
                available = sorted(
                    {family.get("name", "") for family in snapshot}
                )
                snapshot = [
                    family
                    for family in snapshot
                    if family.get("name") == args.family
                ]
                if not snapshot:
                    print(
                        f"error: no metric family {args.family!r} in "
                        f"{args.path}; available: "
                        f"{', '.join(available) or '(none)'}",
                        file=sys.stderr,
                    )
                    return 1
            fmt = args.format or "jsonl"
            if fmt == "prometheus":
                print(prometheus_text(snapshot), end="")
            elif fmt == "jsonl":
                print(snapshot_jsonl(snapshot))
            else:
                print(_metrics_table(snapshot))
            return 0
        spans = load_spans(args.path)
        if args.summary:
            print(trace_summary(spans))
            return 0
        print(render_trace_tree(spans, trace_id=args.trace))
        return 0
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2


def _cmd_health(args) -> int:
    import json

    from repro.obs import load_flight_dump, render_flight_dump
    from repro.obs.health import report_from_dict

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            first_line = handle.readline()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        head = json.loads(first_line) if first_line.strip() else {}
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.path} is not a health export: {exc}",
            file=sys.stderr,
        )
        return 2

    if isinstance(head, dict) and head.get("kind") == "alert":
        dump = load_flight_dump(args.path)
        if args.json:
            print(dump.to_jsonl(), end="")
        else:
            print(render_flight_dump(dump))
        return 0

    # Not a dump: a health-report JSON (possibly pretty-printed).
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.path} is neither a flight dump nor a "
            f"health report: {exc}",
            file=sys.stderr,
        )
        return 2
    if not isinstance(data, dict) or "targets" not in data:
        print(
            f"error: {args.path} is not a health report "
            "(expected a JSON object with a 'targets' key)",
            file=sys.stderr,
        )
        return 2
    report = report_from_dict(data)
    if args.alerts:
        if not report.alerts:
            print("no alerts")
            return 0
        for alert in report.alerts:
            print(
                f"[{alert.severity}] {alert.target}: {alert.spec} "
                f"burn={alert.burn:.2f} error_rate={alert.error_rate:.4f}"
            )
    elif args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    # Operator-friendly exit: non-zero when anything is unhealthy.
    return 0 if report.worst_status() == "healthy" else 1


def _cmd_accounting(args) -> int:
    import json

    try:
        with open(args.usage, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.usage}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(summary, dict):
        print(
            f"error: {args.usage} is not a usage-summary export "
            "(expected a JSON object keyed by account)",
            file=sys.stderr,
        )
        return 2
    if args.account is not None:
        if args.account not in summary:
            print(f"{args.account}: no recorded usage", file=sys.stderr)
            return 1
        summary = {args.account: summary[args.account]}
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    header = (
        f"{'account':<16} {'submitted':>9} {'completed':>9} "
        f"{'failed':>6} {'cancelled':>9} {'cpu-seconds':>12}"
    )
    print(header)
    totals = {"jobs_submitted": 0, "jobs_completed": 0, "jobs_failed": 0,
              "jobs_cancelled": 0, "cpu_seconds": 0.0}
    for account in sorted(summary):
        row = summary[account]
        print(
            f"{account:<16} {row.get('jobs_submitted', 0):>9} "
            f"{row.get('jobs_completed', 0):>9} {row.get('jobs_failed', 0):>6} "
            f"{row.get('jobs_cancelled', 0):>9} "
            f"{row.get('cpu_seconds', 0.0):>12.1f}"
        )
        for key in totals:
            totals[key] += row.get(key, 0)
    print(
        f"{'total':<16} {totals['jobs_submitted']:>9} "
        f"{totals['jobs_completed']:>9} {totals['jobs_failed']:>6} "
        f"{totals['jobs_cancelled']:>9} {totals['cpu_seconds']:>12.1f}"
    )
    return 0


def _cmd_capability(args) -> int:
    import json

    from repro.core.capability import CapabilityToken, default_capability_key

    try:
        with open(args.token, "r", encoding="utf-8") as handle:
            token = CapabilityToken.from_dict(json.load(handle))
    except OSError as exc:
        print(f"error: cannot read {args.token}: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {args.token} is not a capability token: {exc}",
              file=sys.stderr)
        return 2
    print(f"token    : {token.token_id}")
    print(f"subject  : {token.subject}")
    print(f"actions  : {', '.join(token.actions)}")
    print(f"jobtag   : {token.jobtag or '(none)'}")
    print(f"jobowner : {token.jobowner}")
    print(f"spec     : sha256:{token.spec_digest[:16]}...")
    for name, epoch in token.epochs:
        print(f"epoch    : {name} = {epoch}")
    print(f"issued   : t={token.issued_at}")
    print(f"expires  : t={token.expires_at}")
    ok = True
    key = None
    if args.key is not None:
        try:
            key = bytes.fromhex(args.key)
        except ValueError:
            print("error: --key is not valid hex", file=sys.stderr)
            return 2
    elif args.host is not None:
        key = default_capability_key(args.host)
    if key is not None:
        verified = token.verify_signature(key)
        print(f"signature: {'valid' if verified else 'INVALID'}")
        ok = ok and verified
    else:
        print(f"signature: {token.signature[:16]}... (no key given, unverified)")
    if args.now is not None:
        expired = token.expired(args.now)
        print(f"expiry   : {'EXPIRED' if expired else 'live'} at t={args.now}")
        ok = ok and not expired
    return 0 if ok else 1


def _cmd_authz(args) -> int:
    import os

    from repro.core.combination import CombinationAlgorithm
    from repro.core.query import QueryEngine

    evaluators = []
    for path in args.policies:
        policy = parse_policy_file(path)
        name = policy.name or os.path.splitext(os.path.basename(path))[0]
        evaluators.append(PolicyEvaluator(policy, source=name))
    algorithm = (
        CombinationAlgorithm.ALL_MUST_PERMIT
        if args.algorithm == "all"
        else CombinationAlgorithm.PERMIT_OVERRIDES_NOT_APPLICABLE
    )
    engine = QueryEngine(evaluators, algorithm=algorithm)
    explanation = engine.explain(args.subject)
    if not explanation.known:
        known = engine.known_subjects()
        listing = ", ".join(known[:8]) or "(none)"
        if len(known) > 8:
            listing += f", ... ({len(known) - 8} more)"
        print(
            f"error: no statement applies to {args.subject!r} in "
            f"{', '.join(explanation.sources)}; known subjects: {listing}",
            file=sys.stderr,
        )
        return 1
    print(f"subject   : {explanation.identity}")
    print(f"sources   : {', '.join(explanation.sources)}")
    print(f"algorithm : {explanation.algorithm.value}")
    print(f"statements: {explanation.applicable_statements} applicable")
    actions = explanation.actions()
    print(f"actions   : {', '.join(actions) or '(none)'}")
    if explanation.permissions:
        print("permissions:")
        for permission in explanation.permissions:
            print(f"  {permission}")
    else:
        print("permissions: (none — requirements only)")
    if explanation.requirements:
        print("requirements:")
        for source, statement in explanation.requirements:
            for assertion in statement.assertions:
                print(
                    f"  [{source}] {statement.subject.pattern}: {assertion}"
                )
    if args.job is not None:
        spec = parse_specification(args.job)
        action = Action.parse(args.action)
        if action is Action.START:
            request = AuthorizationRequest.start(args.subject, spec)
        else:
            request = AuthorizationRequest.manage(
                args.subject, action, spec, jobowner=args.subject
            )
        pre = engine.check_request(request, deep=True)
        if pre.guaranteed_deny:
            print(f"job check : guaranteed DENY ({pre.level} level)")
            for reason in pre.reasons:
                print(f"  reason: {reason}")
            return 1
        print("job check : possible (forward evaluation decides)")
    return 0


def _cmd_policy(args) -> int:
    from repro.core.store import PolicyBundle, VersionedPolicyStore

    store = VersionedPolicyStore(log_path=args.store)
    if args.policy_command == "publish":
        named_paths = []
        for pair in args.sources:
            name, separator, path = pair.partition("=")
            if not separator or not name or not path:
                print(
                    f"error: expected NAME=PATH, got {pair!r}",
                    file=sys.stderr,
                )
                return 2
            named_paths.append((name, path))
        try:
            bundle = PolicyBundle.from_files(named_paths)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        before = store.policy_epoch
        snapshot = store.publish(bundle)  # BundleRejected -> exit 2
        if snapshot.epoch == before:
            print(
                f"no-op: content identical to epoch {snapshot.epoch} "
                f"({snapshot.short_digest})"
            )
        else:
            print(
                f"published epoch {snapshot.epoch} "
                f"({snapshot.short_digest}) "
                f"sources: {', '.join(bundle.source_names)}"
            )
        return 0
    if args.policy_command == "log":
        entries = store.log_entries()
        if not entries:
            print("(empty store)")
            return 0
        for snapshot in entries:
            print(
                f"epoch {snapshot.epoch:>4} {snapshot.short_digest} "
                f"t={snapshot.published_at:g} origin={snapshot.origin} "
                f"sources={','.join(snapshot.bundle.source_names)}"
            )
        return 0
    # rollback (PolicyStoreError -> exit 2 via main's ValueError trap)
    snapshot = store.rollback(to=args.to, steps=args.steps)
    print(f"rolled back: epoch {snapshot.epoch} ({snapshot.short_digest})")
    return 0


def _cmd_recover(args) -> int:
    import json as json_module
    import os

    from repro.gram.spill import CompletedJobSpill

    if not os.path.exists(args.spill):
        print(f"error: no spill file at {args.spill}", file=sys.stderr)
        return 2
    result = CompletedJobSpill(args.spill).recover()
    if args.json:
        print(
            json_module.dumps(
                {
                    "records": len(result.records),
                    "replayed_lines": result.replayed_lines,
                    "skipped_lines": result.skipped_lines,
                    "evicted": result.evicted,
                    "last_at": result.last_at,
                    "jobs": [
                        {
                            "job_id": record.job_id,
                            "owner": str(record.owner),
                            "state": record.state.value,
                            "finished_at": record.finished_at,
                        }
                        for record in result.records
                    ],
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"records  : {len(result.records)} live")
    print(
        f"replayed : {result.replayed_lines} lines "
        f"({result.evicted} tombstoned)"
    )
    print(f"skipped  : {result.skipped_lines} unparsable line(s)")
    print(f"last_at  : t={result.last_at:g}")
    for record in result.records:
        print(
            f"  job {record.job_id}: {record.state.value} "
            f"owner={record.owner} t={record.finished_at:g}"
        )
    return 0


def _cmd_demo(args) -> int:
    from repro import GramClient, GramService, ServiceConfig
    from repro.core.parser import parse_policy

    alice = "/O=Grid/OU=demo/CN=Alice"
    policy = parse_policy(
        f"""
        {alice}:
            &(action=start)(executable=sim)(count<4)(jobtag!=NULL)
            &(action=cancel)(jobowner=self)
            &(action=information)(jobowner=self)
        """,
        name="demo",
    )
    service = GramService(ServiceConfig(policies=(policy,)))
    client = GramClient(service.add_user(alice, "alice"), service.gatekeeper)
    ok = client.submit("&(executable=sim)(count=2)(jobtag=DEMO)(runtime=60)")
    print(f"submit conforming job : {ok.code.name}")
    denied = client.submit("&(executable=sim)(count=8)(jobtag=DEMO)")
    print(f"submit oversized job  : {denied.code.name}")
    for reason in denied.reasons:
        print(f"  reason: {reason}")
    service.run(10.0)
    print(f"status at t=10        : {client.status(ok.contact).state.value}")
    print(f"cancel own job        : {client.cancel(ok.contact).code.name}")
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "evaluate": _cmd_evaluate,
    "capabilities": _cmd_capabilities,
    "diff": _cmd_diff,
    "xacml-export": _cmd_xacml_export,
    "audit-summary": _cmd_audit_summary,
    "obs": _cmd_obs,
    "health": _cmd_health,
    "accounting": _cmd_accounting,
    "capability": _cmd_capability,
    "authz": _cmd_authz,
    "policy": _cmd_policy,
    "recover": _cmd_recover,
    "demo": _cmd_demo,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (PolicyParseError, RSLSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
