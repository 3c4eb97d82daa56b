"""Command-line interface.

Subcommands: depcreate, depshow, deplist, depdel, rank, validate,
sim run / sim verify.  Deployment commands operate on a world described by a
scenario file (providers, SLAs, users); their effects persist in a small
journal that is replayed deterministically on the next invocation, so no
server process is needed.

Exit codes: 0 success, 1 domain error, 2 usage error.  ``--machine`` prints
one JSON record per line instead of human-readable tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import report as report_mod
from . import stext
from .config import (ENV_CONFIG, EngineConfig, config_from_env, config_path,
                     load_config, resolve_preferences)
from .errors import DomainError
from .ranker import ProviderSnapshot, order_by_score, scored_candidates
from .scenario import load_scenario
from .simulation import World, run_scenario
from .templates import TemplateError, parse_template

ENV_STATE = "ORCH_STATE"
DEFAULT_STATE = ".orchsim-state.json"


class CliError(DomainError):
    pass


def _emit(args, record: dict, human_lines):
    if args.machine:
        print(json.dumps(record))
    else:
        for line in human_lines:
            print(line)


def _render_table(rows: list[dict], columns: list[str]) -> list[str]:
    if not rows:
        return ["(none)"]
    widths = {c: max(len(c), max(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(c.upper().ljust(widths[c]) for c in columns)
    lines = [header]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return lines


# -- deployment session state (journal replay) --------------------------------


# The string fields each journal op replays with.
_JOURNAL_OPS = {"depcreate": ("user", "template_text"), "depdel": ("uuid",)}


def _replayable(command) -> bool:
    op = command.get("op") if isinstance(command, dict) else None
    return (isinstance(op, str) and op in _JOURNAL_OPS and type(command.get("at")) is int
            and all(isinstance(command.get(name), str) for name in _JOURNAL_OPS[op]))


def _read_state(path: str) -> dict:
    """The stored journal at path; a file that is not one is a CliError."""
    try:
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CliError("cannot read state file %r: %s" % (path, exc)) from exc
    if not isinstance(stored, dict) or not isinstance(stored.get("commands", []), list):
        raise CliError("state file %r is not an object with a list of commands" % path)
    for name in ("world", "config"):
        if not isinstance(stored.get(name) or "", str):
            raise CliError("state file %r: %s must be a path or null" % (path, name))
    for index, command in enumerate(stored.get("commands", [])):
        if not _replayable(command):
            raise CliError("state file %r: command %d is not an object with an integer 'at', "
                           "a known 'op' and its string fields" % (path, index))
    return stored


class Session:
    """A world plus a journal of commands, replayed on load.

    Replay is exact because the whole engine is deterministic; this keeps
    state on disk limited to the journal itself.  Every later command replays
    in the world and under the config file the session was created with
    (world_path, config_path); a command that names another is refused.
    """

    def __init__(self, state_path: str, world_path: str, config: EngineConfig,
                 config_path: str | None = None):
        self.state_path = state_path
        self.world_path = world_path
        self.config_path = config_path
        self.commands: list[dict] = []
        self.now = 0
        scenario = load_scenario(world_path)
        scenario.events = []  # the journal drives this world, not the script
        self.world = World(scenario, config)

    @classmethod
    def open(cls, args, *, must_exist: bool) -> "Session":
        state_path = args.state or os.environ.get(ENV_STATE) or DEFAULT_STATE
        stored = _read_state(state_path) if os.path.exists(state_path) else None
        world_path = getattr(args, "world", None) or (stored or {}).get("world")
        if world_path is None:
            if must_exist:
                raise CliError("no session at %s; create one with depcreate --world"
                               % state_path)
            raise CliError("depcreate needs --world <scenario file> on first use")
        path = named = config_path(args.config)
        if stored:
            recorded = stored.get("world")
            if recorded is not None and world_path != recorded:
                raise CliError("session %s was created with world %s; this command names %s"
                               % (state_path, recorded, world_path))
            path = stored.get("config")
            if named is not None and named != path:
                raise CliError("session %s was created with config %s; this command names %s"
                               % (state_path, path or "(none)", named))
        session = cls(state_path, world_path,
                      load_config(path) if path else EngineConfig(), path)
        if stored:
            for command in stored.get("commands", []):
                session._apply(command)
        return session

    def _apply(self, command: dict):
        at = command["at"]
        if at < self.now:
            raise CliError("time goes backward: %d < %d" % (at, self.now))
        horizon = self.world.scenario.horizon_s
        if at > horizon:
            raise CliError("--at %d is past the world's horizon_s %d" % (at, horizon))
        self.now = at
        world = self.world
        if command["op"] == "depcreate":
            return world.command(at, world.submit, command["user"], command["template_text"],
                                 command.get("prefs"), command.get("duration"))
        return world.command(at, world.delete, command["uuid"], command.get("user"))

    def run(self, command: dict):
        result = self._apply(command)
        self.commands.append(command)
        return result

    def save(self):
        """Append this session's commands to the state file, atomically.

        The new state goes to a temporary file next to the state file, which
        then replaces it, so a crash mid-write leaves the previous state file
        whole.
        """
        stored = {"world": self.world_path, "config": self.config_path,
                  "commands": self.commands}
        if os.path.exists(self.state_path):
            previous = _read_state(self.state_path)
            stored["commands"] = previous.get("commands", []) + self.commands
        temp_path = self.state_path + ".tmp"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(stored, handle, indent=2)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.state_path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise


def _deployment_row(record) -> dict:
    return {
        "uuid": record.uuid,
        "state": record.state,
        "owner": record.owner,
        "site": record.chosen_site or "-",
        "created_at": record.created_at,
    }


def _show_deployment(args, record):
    data = _deployment_row(record)
    data["attempts"] = [{"site": s, "outcome": o} for s, o in record.attempts]
    data["outputs"] = dict(record.outputs)
    data["ranked_sites"] = list(record.ranked_sites)
    lines = ["%-12s %s" % (k + ":", v) for k, v in data.items()
             if k not in ("attempts", "outputs", "ranked_sites")]
    lines.append("attempts:    " + (", ".join("%s=%s" % (s, o)
                                              for s, o in record.attempts) or "-"))
    lines.append("outputs:     " + (", ".join("%s=%s" % (k, v)
                                              for k, v in record.outputs.items()) or "-"))
    _emit(args, data, lines)


# -- subcommand handlers -------------------------------------------------------


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("cannot read %r: %s" % (path, exc)) from exc


def _cmd_validate(args) -> int:
    text = _read_file(args.template)
    try:
        template = parse_template(text)
    except TemplateError as exc:
        violations = []
        if exc.report is not None:
            violations = [{"code": v.code, "subject": v.subject, "message": v.message}
                          for v in exc.report.violations]
        _emit(args, {"valid": False, "error": str(exc), "violations": violations},
              ["invalid: %s" % exc])
        return 1
    _emit(args, {"valid": True, "violations": []},
          ["valid: %d nodes, %d outputs, no violations"
           % (len(template.nodes), len(template.outputs))])
    return 0


# Ranker facts per candidate: (value kind, default).
_SNAPSHOT_NUMBERS = {"sla_rank": (stext.NON_NEGATIVE, 0.0), "availability": (stext.FRACTION, 1.0),
                     "latency_ms": (stext.NON_NEGATIVE, 0.0),
                     "data_locality": (stext.FRACTION, 1.0)}


def _load_snapshot(path: str) -> list[ProviderSnapshot]:
    text = _read_file(path)
    try:
        return _read_snapshot(stext.parse_stext(text))
    except stext.StextError as exc:
        raise CliError(str(exc)) from exc


def _read_snapshot(root: stext.Block) -> list[ProviderSnapshot]:
    root.reject_unknown(("candidates",), "snapshot")
    block = root.block("candidates", None, "candidates")
    if not len(block):
        raise CliError("snapshot file has no candidates block")
    snapshots = []
    for provider_id in block.values:
        context = "candidate %s" % provider_id
        fields = block.block(provider_id, _SNAPSHOT_NUMBERS, context)
        snapshots.append(ProviderSnapshot(provider_id=provider_id, **{
            key: float(fields.field(key, context, kind, default))
            for key, (kind, default) in _SNAPSHOT_NUMBERS.items()}))
    return snapshots


def _cmd_rank(args) -> int:
    config = config_from_env(args.config)
    candidates = _load_snapshot(args.snapshot)
    prefs = resolve_preferences(config.preferences, args.user or "",
                                [args.group] if args.group else [])
    scores = scored_candidates(candidates, config.ranker)
    ranked = order_by_score(scores, prefs)
    preferred = set(prefs.providers) if prefs else set()
    rows = [{"rank": i + 1, "provider": pid, "score": "%.6f" % scores[pid],
             "preferred": pid in preferred}
            for i, pid in enumerate(ranked)]
    if args.machine:
        for row in rows:
            print(json.dumps({"rank": row["rank"], "provider": row["provider"],
                              "score": scores[row["provider"]],
                              "preferred": row["preferred"]}))
    else:
        for line in _render_table(rows, ["rank", "provider", "score", "preferred"]):
            print(line)
    return 0


def _cmd_depcreate(args) -> int:
    session = Session.open(args, must_exist=False)
    template_text = _read_file(args.template)
    prefs = [p.strip() for p in args.prefs.split(",")] if args.prefs else None
    uuid = session.run({"op": "depcreate", "at": args.at if args.at is not None
                        else session.now,
                        "user": args.user, "template_text": template_text,
                        "prefs": prefs, "duration": args.duration})
    session.save()
    record = session.world.orchestrator.get_deployment(uuid)
    _show_deployment(args, record)
    return 0


def _cmd_depshow(args) -> int:
    session = Session.open(args, must_exist=True)
    record = session.world.orchestrator.get_deployment(args.uuid)
    _show_deployment(args, record)
    return 0


def _cmd_deplist(args) -> int:
    session = Session.open(args, must_exist=True)
    records = session.world.orchestrator.list_deployments(owner=args.user)
    rows = [_deployment_row(r) for r in records]
    if args.machine:
        for row in rows:
            print(json.dumps(row))
    else:
        for line in _render_table(rows, ["uuid", "state", "owner", "site", "created_at"]):
            print(line)
    return 0


def _cmd_depdel(args) -> int:
    session = Session.open(args, must_exist=True)
    record = session.run({"op": "depdel", "at": args.at if args.at is not None
                          else session.now,
                          "uuid": args.uuid, "user": args.user})
    session.save()
    _show_deployment(args, record)
    return 0


def _cmd_sim_run(args) -> int:
    config = config_from_env(args.config)
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, config)
    if args.report:
        report_mod.write_report(result, args.report)
    if args.machine:
        print(json.dumps({"scenario": scenario.name, "seed": result.seed,
                          "horizon_s": result.horizon_s,
                          "events": len(result.records),
                          "report": args.report}))
    else:
        print("scenario %s: %d log records over %d s (seed %d)"
              % (scenario.name, len(result.records), result.horizon_s, result.seed))
        for site, data in result.metrics["per_site"].items():
            print("  %s: cpu utilization %.1f%%, %d cpu-s used"
                  % (site, 100.0 * data["cpu_utilization"], data["cpu_seconds_used"]))
        print("  preemptions: %d, mean wait: %.2f s"
              % (result.metrics["preemptions"], result.metrics["wait"]["mean_s"]))
        if args.report:
            print("  report written to %s" % args.report)
    return 0


def _cmd_sim_verify(args) -> int:
    loaded = report_mod.load_report(args.report)
    report_mod.verify_report(loaded)
    _emit(args, {"verified": True, "records": len(loaded.records)},
          ["report verified: metrics match the event log (%d records)"
           % len(loaded.records)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchsim",
        description="Federated-cloud orchestration engine and simulator")
    parser.add_argument("--machine", action="store_true",
                        help="emit one structured JSON record per line")
    parser.add_argument("--config", default=None,
                        help="engine config file (default: $%s)" % ENV_CONFIG)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_arg(p):
        # also accepted after the subcommand; SUPPRESS keeps the global value
        # when the per-command flag is absent
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="engine config file (default: $%s)" % ENV_CONFIG)

    p = sub.add_parser("validate", help="validate a deployment template")
    p.add_argument("template")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rank", help="rank providers from a snapshot file")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--user", default=None)
    p.add_argument("--group", default=None)
    add_config_arg(p)
    p.set_defaults(func=_cmd_rank)

    def add_session_args(p, world=False):
        p.add_argument("--state", default=None,
                       help="session journal file (default: $%s or %s)"
                       % (ENV_STATE, DEFAULT_STATE))
        if world:
            p.add_argument("--world", default=None,
                           help="scenario file describing providers/users")

    p = sub.add_parser("depcreate", help="create a deployment")
    p.add_argument("template")
    p.add_argument("--user", required=True)
    p.add_argument("--prefs", default=None, help="comma-separated provider ids")
    p.add_argument("--at", type=int, default=None, help="virtual time of the request")
    p.add_argument("--duration", type=int, default=None,
                   help="run time for Job nodes, in sim seconds")
    add_session_args(p, world=True)
    add_config_arg(p)
    p.set_defaults(func=_cmd_depcreate)

    p = sub.add_parser("depshow", help="show one deployment")
    p.add_argument("uuid")
    add_session_args(p)
    p.set_defaults(func=_cmd_depshow)

    p = sub.add_parser("deplist", help="list deployments")
    p.add_argument("--user", default=None)
    add_session_args(p)
    p.set_defaults(func=_cmd_deplist)

    p = sub.add_parser("depdel", help="delete a deployment")
    p.add_argument("uuid")
    p.add_argument("--user", default=None,
                   help="acting user (defaults to the deployment owner)")
    p.add_argument("--at", type=int, default=None)
    add_session_args(p)
    p.set_defaults(func=_cmd_depdel)

    sim = sub.add_parser("sim", help="run or verify simulations")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    p = sim_sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--report", default=None, help="write the run report here")
    add_config_arg(p)
    p.set_defaults(func=_cmd_sim_run)
    p = sim_sub.add_parser("verify", help="re-check a written report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_sim_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if args.machine:
            print(json.dumps(record))
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
