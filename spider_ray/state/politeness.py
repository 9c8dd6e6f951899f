"""Per-host politeness: robots.txt and Crawl-delay caches in stateful actors.

Generalizes the reference's single global rate-limit sleep
(src/scrapers/tree.ts:20, 296-303, default 1000 ms/page) to the north rule's
"per-host politeness tokens and robots.txt caches held in stateful
actor-pool stages":

- The crawl's robots state lives in its fetch workers (``crawl.FetchWorker``
  holds a ``HostBudgetState``): hosts are partitioned over the pool by
  ``host_shard(host, n_workers)``, so one worker owns a host's robots.txt
  and every fetch decision about a host reads the same rules. A robots-off
  crawl leaves those states empty.
- The per-host cap (``max_per_host_per_wave``) is the driver's wave cut
  (``crawl.RunSet.cut``), not applied here. ``PolitenessPool.screen``
  makes ONE call per owning worker per wave and returns the robots mask
  and each host's Crawl-delay wave budget (floor(wave_period_s / delay)
  tokens — deterministic, no sleeps, so crawl ordering is reproducible).
- robots.txt is fetched by the owning worker inside ``screen``, once per
  host, through the same resolver object as the worker's pages (the
  crawl's resolver seam; the call bypasses ``FetchStage``'s caches and
  fetch counter), asked for ``<scheme>://<netloc>/robots.txt`` of the
  host's first URL in the wave (``urls.host_of`` drops the port). The
  driver fetches nothing.
  Statuses map as RFC 9309 §2.3.1 says: a 2xx is parsed (first 500 KiB;
  ``parse_robots`` also reads a fractional Crawl-delay) and cached; any
  other status under 500 allows everything and is cached; a 5xx or the
  resolver's 599 (unreachable) caches nothing and gives the host a
  budget of 0, so ``crawl_delay_keep`` defers all its rows to the next
  wave, whose ``screen`` asks again — until robots.txt answers or
  ``max_epochs`` ends the crawl. Failure stays data: nothing is dropped
  and nothing raises.
- ``HostBudgetActor``, ``PolitenessPool.create`` and the one-concern calls
  ``begin_wave``/``ensure_robots``/``allowed``/``delay_caps`` serve
  standalone politeness actors only; the crawl calls none of them.
"""

from __future__ import annotations

import hashlib
import math
import re
import urllib.parse
import urllib.robotparser

import numpy as np
import ray


def host_shard(host: str, n_actors: int) -> int:
    return int.from_bytes(hashlib.md5(host.encode()).digest()[:4], "big") % n_actors


# a Crawl-delay line's value (key matched the way the stdlib parser
# matches it: case-insensitive, whitespace around the colon, comment cut)
_CRAWL_DELAY = re.compile(r"(?im)^(\s*crawl-delay\s*:)([^#\r\n]*)")


# RFC 9309 §2.5: a crawler parses at least the first 500 KiB of robots.txt
ROBOTS_MAX_BYTES = 500 * 1024


def robots_url(url: str) -> str:
    """The robots.txt URL of ``url``'s scheme and netloc (port kept)."""
    parts = urllib.parse.urlsplit(url)
    return f"{parts.scheme}://{parts.netloc}/robots.txt"


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

    def set_robots(self, host: str, robots_txt: str | None) -> None:
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

    def fetch_robots(self, host: str, url: str, resolve) -> bool:
        """Fetch and cache ``host``'s robots.txt at ``url``'s scheme and
        netloc through a resolver's ``resolve``; False (nothing cached)
        on a 5xx or an unreachable host."""
        resp = resolve(robots_url(url), 0)
        if resp.status >= 500:
            return False
        if 200 <= resp.status < 300:
            body = resp.content.encode() if resp.content is not None else resp.body_bytes or b""
            self.set_robots(host, body[:ROBOTS_MAX_BYTES].decode("utf-8", "replace"))
        else:
            self.set_robots(host, None)
        return True

    def screen(self, urls_by_host: dict, resolve) -> tuple[dict, dict]:
        """(host → robots mask of its urls for this state's agent, host →
        Crawl-delay budget or None for every host with at least one
        allowed url), fetching robots.txt for hosts not cached; 0 when it
        did not answer."""
        unreachable = [
            h for h, urls in urls_by_host.items()
            if not self.robots_known(h) and not self.fetch_robots(h, urls[0], resolve)
        ]
        masks = {h: self.allowed(h, urls, self.agent) for h, urls in urls_by_host.items()}
        caps = {h: self.delay_budget(h) for h, m in masks.items() if m.any()}
        caps.update(dict.fromkeys(unreachable, 0))
        return masks, caps


POLITENESS_NUM_CPUS = 0.1


@ray.remote(num_cpus=POLITENESS_NUM_CPUS)
class HostBudgetActor:
    """A standalone host's robots state (the crawl keeps its own in the
    fetch workers)."""

    def __init__(self, budget_per_wave: int, wave_period_s: float = 60.0):
        self.state = HostBudgetState(budget_per_wave, wave_period_s)

    def begin_wave(self) -> None:
        self.state.begin_wave()

    def set_robots(self, host: str, robots_txt: str | None) -> None:
        self.state.set_robots(host, robots_txt)

    def robots_unknown_hosts(self, hosts: list[str]) -> list[str]:
        return [h for h in set(hosts) if not self.state.robots_known(h)]

    def allowed(self, host: str, urls: list[str], agent: str = "*") -> np.ndarray:
        return self.state.allowed(host, urls, agent)

    def delay_budgets(self, hosts: list[str]) -> list:
        return [self.state.delay_budget(h) for h in hosts]


class PolitenessPool:
    """Client over the actors that own hosts' robots state (serializable:
    the handles): ``screen`` asks the crawl's fetch workers, the other
    calls standalone ``HostBudgetActor``s from ``create``."""

    def __init__(self, actors: list):
        self.actors = actors
        self.n = len(actors)

    @classmethod
    def create(
        cls, n_actors: int = 4, budget_per_wave: int = 64, wave_period_s: float = 60.0
    ) -> "PolitenessPool":
        return cls(
            [HostBudgetActor.remote(budget_per_wave, wave_period_s) for _ in range(n_actors)]
        )

    def _by_actor(self, hosts) -> dict[int, list[str]]:
        """Owning actor → its hosts, in the order given."""
        by_actor: dict[int, list[str]] = {}
        for h in hosts:
            by_actor.setdefault(host_shard(h, self.n), []).append(h)
        return by_actor

    def begin_wave(self) -> None:
        ray.get([a.begin_wave.remote() for a in self.actors])

    def ensure_robots(self, hosts: list[str], fetch_robots) -> None:
        """Fetch+cache robots.txt for any unknown host. ``fetch_robots(host)``
        returns the robots.txt text or None (no robots → allow all)."""
        unknown_refs = {
            s: self.actors[s].robots_unknown_hosts.remote(hs)
            for s, hs in self._by_actor(sorted(set(hosts))).items()
        }
        sets = []
        for s, ref in unknown_refs.items():
            for h in ray.get(ref):
                sets.append((s, h, fetch_robots(h)))
        ray.get([self.actors[s].set_robots.remote(h, txt) for s, h, txt in sets])

    def delay_caps(self, hosts: list[str]) -> dict:
        """host → Crawl-delay wave budget (None = no directive), for the
        distinct hosts given. One round-trip per owning actor."""
        refs = [
            (hs, self.actors[s].delay_budgets.remote(hs))
            for s, hs in self._by_actor(sorted(set(hosts))).items()
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
            refs.append((idx, self.actors[s].allowed.remote(h, [urls[i] for i in idx])))
        for idx, ref in refs:
            out[np.array(idx)] = ray.get(ref)
        return out

    def screen(self, hosts: list[str], urls: list[str]) -> tuple[np.ndarray, dict]:
        """One wave's robots screen in ONE call per owning actor:
        ``(allowed, caps)``, the robots mask and the Crawl-delay budgets
        of the allowed rows' hosts (see ``HostBudgetState.screen``)."""
        if not urls:
            return np.zeros(0, dtype=bool), {}
        rows: dict[str, list[int]] = {}
        for i, h in enumerate(hosts):
            rows.setdefault(h, []).append(i)
        refs = [
            self.actors[s].screen.remote({h: [urls[i] for i in rows[h]] for h in hs})
            for s, hs in self._by_actor(rows).items()
        ]
        allowed = np.ones(len(urls), dtype=bool)
        caps: dict = {}
        for masks, actor_caps in ray.get(refs):
            for h, mask in masks.items():
                allowed[rows[h]] = mask
            caps.update(actor_caps)
        return allowed, caps
