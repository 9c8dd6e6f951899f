"""Per-host politeness budgets and robots.txt caches.

Generalizes the reference's single global rate-limit sleep
(src/scrapers/tree.ts:20, 296-303, default 1000 ms/page) to the north rule's
"per-host politeness tokens and robots.txt caches held in stateful
actor-pool stages":

- Hosts are partitioned over a small pool of ``HostBudgetActor``s keyed by
  ``hash(host) % n_actors`` — one actor owns a host's budget, so a hot host
  is throttled globally no matter how many fetch actors touch it.
- Budgets are deterministic token counts per wave (``max_per_host_per_wave``)
  rather than wall-clock sleeps, which keeps crawl ordering reproducible
  (the conformance requirement) while still bounding per-host load; the
  remainder of an over-budget host is re-enqueued to the next wave.
- robots.txt: fetched once per host through the engine's own fetch adapter,
  parsed with the stdlib parser (``parse_robots``, which also reads a
  fractional Crawl-delay the stdlib parser alone would drop), cached in the
  owning actor.

Hot-host skew (SURVEY.md §4): the *wave scheduler* caps each host's rows per
wave, so one hot host can never dominate a wave; other hosts' work fills the
wave instead.
"""

from __future__ import annotations

import hashlib
import math
import re
import urllib.robotparser

import numpy as np
import ray


def host_shard(host: str, n_actors: int) -> int:
    return int.from_bytes(hashlib.md5(host.encode()).digest()[:4], "big") % n_actors


# a Crawl-delay line's value (key matched the way the stdlib parser
# matches it: case-insensitive, whitespace around the colon, comment cut)
_CRAWL_DELAY = re.compile(r"(?im)^(\s*crawl-delay\s*:)([^#\r\n]*)")


def parse_robots(robots_txt: str, agent: str):
    """(stdlib parser, Crawl-delay seconds for ``agent`` or None).

    The stdlib parser only keeps a whole-number delay, so each
    Crawl-delay value is swapped for its line index before parsing; the
    parser's own user-agent grouping then picks the line that applies to
    ``agent``, and that line's original value is read as a float. A value
    that is not a positive finite number gives None."""
    values: list[str] = []

    def to_index(m: re.Match) -> str:
        values.append(m.group(2).strip())
        return f"{m.group(1)} {len(values) - 1}"

    parser = urllib.robotparser.RobotFileParser()
    parser.parse(_CRAWL_DELAY.sub(to_index, robots_txt).splitlines())
    index = parser.crawl_delay(agent)
    try:
        delay = float(values[index]) if index is not None else None
    except ValueError:
        delay = None
    if delay is None or not math.isfinite(delay) or delay <= 0:
        return parser, None
    return parser, delay


class HostBudgetState:
    """Plain state — unit-testable without Ray."""

    def __init__(
        self,
        budget_per_wave: int,
        wave_period_s: float = 60.0,
        agent: str = "*",
    ):
        self.budget_per_wave = budget_per_wave
        # Crawl-delay → token mapping: a wave models wave_period_s of
        # polite wall-clock, so a host declaring Crawl-delay: d gets
        # floor(wave_period_s / d) tokens per wave (>=1, capped by the
        # global budget). Deterministic — no sleeps — which keeps crawl
        # ordering reproducible while honoring the directive's RATE.
        self.wave_period_s = wave_period_s
        self.agent = agent
        self.tokens: dict[str, int] = {}
        self.robots: dict[str, urllib.robotparser.RobotFileParser | None] = {}
        self.delays: dict[str, float | None] = {}
        self._budget_cache: dict[str, int] = {}

    def begin_wave(self) -> None:
        self.tokens.clear()  # fresh budget each wave

    def delay_budget(self, host: str) -> int | None:
        """floor(wave_period_s / Crawl-delay) tokens (>=1, capped by the
        global budget) when the host's robots declare a delay for our
        agent; None when no directive applies."""
        delay = self.delays.get(host)
        if delay is None:
            return None
        return max(1, min(self.budget_per_wave, int(self.wave_period_s / delay)))

    def budget_for(self, host: str) -> int:
        """Per-host wave budget, honoring robots Crawl-delay when the
        host declared one for our agent (else the global budget)."""
        cached = self._budget_cache.get(host)
        if cached is not None:
            return cached
        budget = self.delay_budget(host)
        if budget is None:
            budget = self.budget_per_wave
        self._budget_cache[host] = budget
        return budget

    def acquire(self, hosts: list[str]) -> np.ndarray:
        """Grant/deny one token per row, in order (deterministic)."""
        out = np.zeros(len(hosts), dtype=bool)
        for i, h in enumerate(hosts):
            used = self.tokens.get(h, 0)
            if used < self.budget_for(h):
                self.tokens[h] = used + 1
                out[i] = True
        return out

    def set_robots(self, host: str, robots_txt: str | None) -> None:
        self._budget_cache.pop(host, None)  # delay may have changed
        if robots_txt is None:
            self.robots[host] = self.delays[host] = None
            return
        self.robots[host], self.delays[host] = parse_robots(robots_txt, self.agent)

    def robots_known(self, host: str) -> bool:
        return host in self.robots

    def allowed(self, host: str, urls: list[str], agent: str = "*") -> np.ndarray:
        parser = self.robots.get(host)
        if parser is None:
            return np.ones(len(urls), dtype=bool)
        return np.fromiter(
            (parser.can_fetch(agent, u) for u in urls), dtype=bool, count=len(urls)
        )


POLITENESS_NUM_CPUS = 0.1


@ray.remote(num_cpus=POLITENESS_NUM_CPUS)
class HostBudgetActor:
    def __init__(
        self,
        budget_per_wave: int,
        wave_period_s: float = 60.0,
        agent: str = "*",
    ):
        self.state = HostBudgetState(budget_per_wave, wave_period_s, agent)

    def begin_wave(self) -> None:
        self.state.begin_wave()

    def acquire(self, hosts: list[str]) -> np.ndarray:
        return self.state.acquire(hosts)

    def set_robots(self, host: str, robots_txt: str | None) -> None:
        self.state.set_robots(host, robots_txt)

    def robots_unknown_hosts(self, hosts: list[str]) -> list[str]:
        return [h for h in set(hosts) if not self.state.robots_known(h)]

    def allowed(self, host: str, urls: list[str], agent: str = "*") -> np.ndarray:
        return self.state.allowed(host, urls, agent)

    def delay_budgets(self, hosts: list[str]) -> list:
        return [self.state.delay_budget(h) for h in hosts]


class PolitenessPool:
    """Client over the host-budget actors (serializable: handles only)."""

    def __init__(self, actors: list, agent: str = "*"):
        self.actors = actors
        self.n = len(actors)
        self.agent = agent

    @classmethod
    def create(
        cls,
        n_actors: int = 4,
        budget_per_wave: int = 64,
        wave_period_s: float = 60.0,
        agent: str = "*",
    ) -> "PolitenessPool":
        return cls(
            [
                HostBudgetActor.remote(budget_per_wave, wave_period_s, agent)
                for _ in range(n_actors)
            ],
            agent=agent,
        )

    def begin_wave(self) -> None:
        ray.get([a.begin_wave.remote() for a in self.actors])

    def acquire(self, hosts: list[str]) -> np.ndarray:
        """Order-preserving token acquisition across the owning actors."""
        if not hosts:
            return np.zeros(0, dtype=bool)
        shard = np.fromiter(
            (host_shard(h, self.n) for h in hosts), dtype=np.int64, count=len(hosts)
        )
        refs = {}
        for s in range(self.n):
            idx = np.nonzero(shard == s)[0]
            if idx.size:
                refs[s] = (idx, self.actors[s].acquire.remote([hosts[i] for i in idx]))
        out = np.zeros(len(hosts), dtype=bool)
        for s, (idx, ref) in refs.items():
            out[idx] = ray.get(ref)
        return out

    def ensure_robots(self, hosts: list[str], fetch_robots) -> None:
        """Fetch+cache robots.txt for any unknown host. ``fetch_robots(host)``
        returns the robots.txt text or None (no robots → allow all)."""
        uniq = sorted(set(hosts))
        by_actor: dict[int, list[str]] = {}
        for h in uniq:
            by_actor.setdefault(host_shard(h, self.n), []).append(h)
        unknown_refs = {
            s: self.actors[s].robots_unknown_hosts.remote(hs)
            for s, hs in by_actor.items()
        }
        sets = []
        for s, ref in unknown_refs.items():
            for h in ray.get(ref):
                sets.append((s, h, fetch_robots(h)))
        ray.get([self.actors[s].set_robots.remote(h, txt) for s, h, txt in sets])

    def delay_caps(self, hosts: list[str]) -> dict:
        """host → Crawl-delay wave budget (None = no directive), for the
        distinct hosts given. One round-trip per owning actor."""
        uniq = sorted(set(hosts))
        by_actor: dict[int, list[str]] = {}
        for h in uniq:
            by_actor.setdefault(host_shard(h, self.n), []).append(h)
        refs = [
            (hs, self.actors[s].delay_budgets.remote(hs))
            for s, hs in by_actor.items()
        ]
        out: dict = {}
        for hs, ref in refs:
            out.update(zip(hs, ray.get(ref)))
        return out

    def allowed(self, hosts: list[str], urls: list[str]) -> np.ndarray:
        if not urls:
            return np.zeros(0, dtype=bool)
        order = {}
        for i, h in enumerate(hosts):
            order.setdefault(h, []).append(i)
        out = np.ones(len(urls), dtype=bool)
        refs = []
        for h, idx in order.items():
            s = host_shard(h, self.n)
            refs.append(
                (idx, self.actors[s].allowed.remote(h, [urls[i] for i in idx], self.agent))
            )
        for idx, ref in refs:
            out[np.array(idx)] = ray.get(ref)
        return out
