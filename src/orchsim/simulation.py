"""Deterministic discrete-event simulation of the federated sites.

A scenario (see scenario.py) names providers (with physical nodes), SLAs,
datasets, users and a time-ordered event script.  The run advances a virtual
integer clock event to event; identical scenario and seed give a
byte-identical event log.
Every site's invariants are audited after every scenario event and after
every queued event that ran a handler or brought a site visit; a violation
aborts the run.  The only events not audited are stale timers that changed
nothing (World._advance), so every state the run reaches is audited.
"""

from __future__ import annotations

import functools
import heapq

from .config import EngineConfig
from .elasticity import ACTION_POWER_ON, ElasticityError, NodeRecord
from .errors import DomainError
from .iam import IamService
from .orchestrator import (AuthError, DataCatalog, IllegalTransitionError, NotFoundError,
                           Orchestrator)
from .ranker import PreferenceList
from .report import EventLog, MetricsAccumulator, RunReport
from .scenario import EventSpec, Scenario
from .site import Site, make_site
from .templates import KIND_JOB, TemplateError


class InvariantViolationError(DomainError):
    pass


class World:
    """All simulation state for one run, advanced by the event loop only."""

    def __init__(self, scenario: Scenario, config: EngineConfig | None = None):
        self.scenario = scenario
        self.config = config or EngineConfig()
        self.log = EventLog()
        self.metrics = MetricsAccumulator(scenario.horizon_s)
        self.log.listen(self.metrics.observe)
        self.log.listen(self._on_record)
        self.iam = IamService(seed=scenario.seed)

        weights = {user.name: user.weight for user in scenario.users}

        self.sites: dict[str, Site] = {}
        for spec in scenario.providers:
            nodes = [NodeRecord(node_id=node_id, capacity=capacity, power=power,
                                role=role)
                     for node_id, capacity, power, role in spec.nodes]
            site = make_site(spec.provider_id, nodes,
                             availability=spec.availability,
                             latency_ms=spec.latency_ms,
                             policy=spec.elasticity or self.config.elasticity,
                             half_life_s=self.config.half_life_s,
                             backfill=self.config.backfill,
                             weights=weights,
                             quotas=self.config.quotas,
                             log=self.log, t=0)
            self.sites[spec.provider_id] = site
        # (site id, site) in id order, the order _audit walks them in
        self._audit_order = tuple(sorted(self.sites.items()))
        # The sites the next _stabilize visits: every write of a site's pool,
        # queue or floor marks it, and so does an idle node of it come due.
        # Every site starts marked, so the first pass visits them all.
        self._marked: set[str] = set(self.sites)
        self._rank = {spec.provider_id: rank
                      for rank, spec in enumerate(scenario.providers)}
        for site_id, site in self.sites.items():
            site.scheduler.mark = site.elastic.mark = \
                functools.partial(self._marked.add, site_id)
        # time -> the sites whose visit left an idle node due then; the keys
        # are the times of the queued elastic_tick wakes (see _stabilize)
        self._wakes: dict[int, set[str]] = {}

        self.tokens: dict[str, str] = {}
        for user in scenario.users:
            token = self.iam.issue_token(user.name, [user.group],
                                         scenario.horizon_s + 1, 0)
            self.tokens[user.name] = token.token_id
            self.log.emit(0, "token_issued", user=user.name, token=token.token_id)

        for sla in scenario.slas:
            # A signed SLA implies the group may use the provider.
            self.iam.add_permit(sla.group, sla.provider_id)

        self.orchestrator = Orchestrator(
            sites=self.sites, iam=self.iam, slas=scenario.slas,
            catalog=DataCatalog(scenario.datasets),
            ranker_config=self.config.ranker,
            preferences=self.config.preferences,
            log=self.log)

        self._heap: list[tuple[int, int, str, dict]] = []
        self._seq = 0
        for event in scenario.events:
            self._push(event.at, "scenario", {"event": event})
        self._deployments_by_ref: dict[str, str] = {}
        # Nodes idle from the start power off t_idle_s later, event or not.
        for site_id, site in self.sites.items():
            self._schedule_wake(site_id,
                                site.pool.next_idle_due(0, site.elastic.policy.t_idle_s))

    # -- event plumbing -----------------------------------------------------

    def _push(self, at: int, kind: str, payload: dict):
        heapq.heappush(self._heap, (at, self._seq, kind, payload))
        self._seq += 1

    def _on_record(self, record: dict):
        """Schedule job expirations when job instances actually start."""
        if record.get("kind") != "instance_started":
            return
        ref = self.orchestrator.find_ref(record["site"], record["request_id"])
        if ref is not None and ref.kind == KIND_JOB and ref.duration_s is not None:
            self._push(record["t"] + ref.duration_s, "job_expire",
                       {"site": record["site"], "request_id": record["request_id"]})

    # -- run loop -------------------------------------------------------------

    def run(self) -> RunReport:
        self._advance(self.scenario.horizon_s)
        self._close(self.scenario.horizon_s)
        return RunReport(seed=self.scenario.seed, horizon_s=self.scenario.horizon_s,
                         records=self.log.records, metrics=self.metrics.finalize())

    def _advance(self, until: int):
        """Apply and stabilize every queued event due by until, in order, and
        audit after each one unless it was a stale pop that visited no site.

        _apply calls a pop stale when it ran no handler that can write: an
        elastic_tick, a job_expire whose instance has ended or no longer
        runs, or a site_recover that a later failure superseded.  If
        _stabilize then visits no site either, no code that can write site
        state has run since the last audit, which passed on the same state.
        A failed flag that turned at the pop's time changes nothing: an
        unmarked site is at its last visit's fixpoint, which the preemption
        soundness check passes whether the site is failed or not, and a
        marked one is visited.  So every state a handler or a visit produces
        is audited at the pop that produced it.
        """
        heap = self._heap
        while heap and heap[0][0] <= until:
            at, _seq, kind, payload = heapq.heappop(heap)
            wrote = self._apply(at, kind, payload)
            if self._stabilize(at) or wrote:
                self._audit(at)

    def command(self, t: int, action, *args):
        """Run action(t, *args) at t as the loop runs a scenario event at t.

        Queued events due before t fire first.  Events due at t fire after the
        action, because scenario events take the lowest sequence numbers.
        """
        self._advance(t - 1)
        result = action(t, *args)
        self._stabilize(t)
        self._audit(t)
        return result

    def _close(self, horizon: int):
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            for request in site.scheduler.ordered_queue(horizon):
                self.log.emit(horizon, "still_queued", site=site_id,
                              request_id=request.request_id, user=request.user)
            for request_id in sorted(site.scheduler.running):
                self.log.emit(horizon, "still_running", site=site_id,
                              request_id=request_id)

    # -- event application ----------------------------------------------------

    def _apply(self, t: int, kind: str, payload: dict) -> bool:
        """Run the handler of one popped event; False when the pop is stale:
        no handler that can write ran (see _advance)."""
        if kind == "scenario":
            event: EventSpec = payload["event"]
            self.log.emit(t, "scenario_event", event=event.key, action=event.action)
            getattr(self, "_do_" + event.action)(t, event)
            return True
        if kind == "job_expire":
            return self._do_job_expire(t, payload["site"], payload["request_id"])
        if kind == "boot_complete":
            self.sites[payload["site"]].pool.boot_complete(payload["node"], t)
            return True
        if kind == "site_recover":
            return self._do_site_recover(t, payload["site"])
        if kind == "elastic_tick":
            # Only wakes the stabilization pass, which visits every site with
            # an idle node come due at t.
            return False
        raise InvariantViolationError("unknown internal event %r" % kind)

    # -- commands ---------------------------------------------------------------

    def submit(self, t: int, user: str, template_text: str, prefs=None,
               duration: int | None = None) -> str:
        """Create a deployment as user; raises the orchestrator's errors.

        No site scheduler holds a virtual Job, so its expiry is queued here.
        """
        uuid = self.orchestrator.create_deployment(
            template_text, self.tokens.get(user, ""), t,
            prefs=None if prefs is None else PreferenceList(tuple(prefs)),
            job_duration_s=duration)
        for ref in self.orchestrator.instance_refs(uuid):
            if ref.request is None and ref.kind == KIND_JOB and ref.duration_s is not None:
                self._push(t + ref.duration_s, "job_expire",
                           {"site": ref.site_id, "request_id": ref.request_id})
        return uuid

    def delete(self, t: int, uuid: str, user: str | None = None):
        """Delete a deployment as user (default: its owner); raises the orchestrator's errors."""
        if user is None:
            user = self.orchestrator.get_deployment(uuid).owner
        return self.orchestrator.delete_deployment(uuid, self.tokens.get(user, ""), t)

    def _do_submit(self, t: int, event: EventSpec):
        params = event.params
        template_text = params.get("template_text")
        if template_text is None:
            template_text = self.scenario.templates[params["template"]]
        try:
            uuid = self.submit(t, params["user"], template_text, params.get("prefs"),
                               params.get("duration"))
        except (AuthError, TemplateError) as exc:
            self.log.emit(t, "deployment_rejected", event=event.key, user=params["user"],
                          reason="auth" if isinstance(exc, AuthError) else "template",
                          detail=str(exc))
            return
        self._deployments_by_ref[event.key] = uuid

    def _do_delete(self, t: int, event: EventSpec):
        ref = event.params["ref"]
        uuid = self._deployments_by_ref.get(ref)
        if uuid is None:
            self.log.emit(t, "delete_failed", event=event.key, ref=ref,
                          reason="not_found")
            return
        try:
            self.delete(t, uuid, event.params.get("user"))
        except (AuthError, NotFoundError, IllegalTransitionError) as exc:
            self.log.emit(t, "delete_failed", event=event.key, ref=ref,
                          reason=type(exc).__name__, detail=str(exc))

    def _do_fail_site(self, t: int, event: EventSpec):
        site_id = event.params["provider"]
        duration = event.params["duration"]
        site = self.sites[site_id]
        until = t + int(duration)
        site.failed_until = max(site.failed_until or 0, until)
        self.log.emit(t, "site_failed", site=site_id, until=site.failed_until)
        self.orchestrator.note_killed(site_id, site.scheduler.kill_running(t))
        self._push(site.failed_until, "site_recover", {"site": site_id})

    def _do_site_recover(self, t: int, site_id: str) -> bool:
        """Recover the site; False when a later failure superseded this
        recovery and nothing was done."""
        site = self.sites[site_id]
        if site.failed_until is None or t < site.failed_until:
            return False
        site.failed_until = None
        self.log.emit(t, "site_recovered", site=site_id)
        self.orchestrator.restart_killed(site_id, t)
        return True

    def _do_revoke_token(self, t: int, event: EventSpec):
        user = event.params["user"]
        token_id = self.tokens.get(user)
        if token_id:
            self.iam.revoke(token_id)
        self.log.emit(t, "token_revoked", user=user)

    def _do_switch_role(self, t: int, event: EventSpec):
        site = self.sites[event.params["provider"]]
        try:
            site.pool.switch_role(event.params["node"], event.params["target"], t)
        except ElasticityError as exc:
            self.log.emit(t, "role_change_failed", site=site.site_id,
                          node=event.params["node"], detail=str(exc))

    def _do_job_expire(self, t: int, site_id: str, request_id: str) -> bool:
        """End the job; False when its instance has ended or no longer runs
        and nothing was done."""
        ref = self.orchestrator.find_ref(site_id, request_id)
        if ref is None or ref.ended:
            return False
        if ref.request is None:
            ref.ended = True
            self.log.emit(t, "job_completed", site=site_id, request_id=request_id,
                          virtual=True)
            return True
        scheduler = self.sites[site_id].scheduler
        if request_id not in scheduler.running:
            return False
        scheduler.release(request_id, t, reason="job_completed")
        return True

    # -- stabilization and audits ----------------------------------------------

    def _stabilize(self, t: int) -> int:
        """Bring every marked site that is not failed to a fixpoint at t:
        dispatch starts nothing more and reconcile plans no power action.
        Returns how many sites it visited.

        Sites mark themselves (World._marked): NodePool._update, the
        scheduler's queue writes and a change of the elasticity floor each
        mark their site.  This pass first marks each site World._wakes holds
        for t that still has an idle node due exactly at t; one that a later
        visit re-timed has none, as an unmarked site's pool is as its last
        visit left it.  The marked sites are visited in scenario order; a
        visit unmarks its site unless backfill is off and its queue is not
        empty, and a failed site stays marked until it recovers.  Skipping an
        unmarked site is exact, because its last visit ended at a fixpoint
        and nothing it read moved since:
        - with backfill on, a finished dispatch leaves every queued shape
          unstartable at that pool state, and whether a shape can start
          depends on the pool state only (SiteScheduler._startable), not on
          the time or the queue order; with backfill off the head can change
          as usage decays, so a non-empty queue keeps its site marked;
        - reconcile reads only the site's nodes, the queued demand and the
          floor, and reads t only through which idle nodes are due;
        - one reconcile plans its own fixpoint (a second call at t plans
          nothing), and its power actions only remove schedulable free
          space, so dispatch still starts nothing after them.  A second pass
          at the same t therefore changes nothing, which is also why one
          elastic_tick per time is enough however many sites come due then.
        A visit writes its own site only, so one sorted snapshot of the
        marks visits the sites a walk over every site in scenario order would.
        Neither dispatch nor reconcile reads whether the site is failed, so
        once a failed site recovers its mark decides like any other.
        """
        marked = self._marked
        for site_id in self._wakes.pop(t, ()):
            site = self.sites[site_id]
            if site.pool.next_idle_due(t - 1, site.elastic.policy.t_idle_s) == t:
                marked.add(site_id)
        visited = 0
        for site_id in sorted(marked, key=self._rank.__getitem__):
            site = self.sites[site_id]
            if not site.failed(t):
                self._visit(site, t)
                visited += 1
        return visited

    def _visit(self, site: Site, t: int):
        """Dispatch, then apply the power actions of one reconcile, which
        plans its own fixpoint; unmark the site unless backfill is off and its
        queue is not empty, and wake it when its next idle node comes due."""
        site_id = site.site_id
        site.scheduler.dispatch(t)
        policy = site.elastic.policy
        for action in site.elastic.reconcile(site.pool, site.scheduler.queued_demand(), t):
            if action.kind == ACTION_POWER_ON:
                self._push(site.pool.power_on(action.node_id, t, policy.boot_delay_s),
                           "boot_complete", {"site": site_id, "node": action.node_id})
            else:
                site.pool.power_off(action.node_id, t)
        if site.scheduler.backfill or not site.scheduler.queue:
            self._marked.discard(site_id)
        self._schedule_wake(site_id, site.pool.next_idle_due(t, policy.t_idle_s))

    def _schedule_wake(self, site_id: str, wake: int | None):
        """Wake site_id at wake, up to the horizon: one elastic_tick per time
        serves every site due then."""
        if wake is None or wake > self.scenario.horizon_s:
            return
        sites = self._wakes.get(wake)
        if sites is None:
            sites = self._wakes[wake] = set()
            self._push(wake, "elastic_tick", {})
        sites.add(site_id)

    def _audit(self, t: int):
        """Audit every site, in site id order, after every event but a stale
        one (see _advance); any violation aborts the run."""
        for site_id, site in self._audit_order:
            try:
                site.scheduler.audit(failed=site.failed(t))
            except DomainError as exc:
                raise InvariantViolationError("site %s at t=%d: %s"
                                              % (site_id, t, exc)) from exc


def run_scenario(scenario: Scenario, config: EngineConfig | None = None) -> RunReport:
    """Run to the horizon; same scenario and seed give a byte-identical log."""
    return World(scenario, config).run()
