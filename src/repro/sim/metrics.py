"""Run statistics and the paper's metrics.

The paper reports mispredicts per thousand uops (misp/Kuops), mispredict
percentages, distance between pipeline flushes in uops (418 → 680 for the
headline configuration), the critique census (§7.3) and filter shares
(Table 4). :class:`RunStats` accumulates all of them over the measured
window of a run (post-warmup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.critiques import CritiqueCensus


@dataclass
class RunStats:
    """Counters accumulated over the measurement window of one run."""

    benchmark: str = ""
    system: str = ""

    #: Committed conditional branches measured.
    branches: int = 0
    #: Committed uops in the measurement window.
    committed_uops: int = 0
    #: Final-prediction mispredicts (pipeline flushes).
    mispredicts: int = 0
    #: Prophet-prediction mispredicts (before any critic override).
    prophet_mispredicts: int = 0
    #: Branches with no dynamic prediction (BTB miss).
    static_branches: int = 0
    #: Critiques generated with fewer than the configured future bits.
    forced_critiques: int = 0
    #: FTQ-confined flushes from critic disagreement.
    critic_redirects: int = 0
    #: Total uops fetched by the front end (correct + wrong path).
    fetched_uops: int = 0
    #: Taken branches (sanity/telemetry).
    taken_branches: int = 0

    census: CritiqueCensus = field(default_factory=CritiqueCensus)

    #: Optional per-site attribution (enabled via SimulationConfig):
    #: pc -> [branches, prophet_mispredicts, final_mispredicts,
    #:        overrides_won, overrides_lost].
    per_site: dict[int, list[int]] | None = None

    # -- the paper's metrics ---------------------------------------------------

    @property
    def misp_per_kuops(self) -> float:
        """Mispredicts per thousand committed uops (Figures 5-7)."""
        if self.committed_uops == 0:
            return 0.0
        return 1000.0 * self.mispredicts / self.committed_uops

    @property
    def prophet_misp_per_kuops(self) -> float:
        if self.committed_uops == 0:
            return 0.0
        return 1000.0 * self.prophet_mispredicts / self.committed_uops

    @property
    def mispredict_rate(self) -> float:
        """Fraction of branches mispredicted (gcc headline: 3.11% → 1.23%)."""
        if self.branches == 0:
            return 0.0
        return self.mispredicts / self.branches

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredict_rate

    @property
    def uops_per_flush(self) -> float:
        """Distance between pipeline flushes (headline: 418 → 680 uops)."""
        if self.mispredicts == 0:
            return float("inf")
        return self.committed_uops / self.mispredicts

    @property
    def wrong_path_uops(self) -> int:
        """Fetched-but-not-committed uops (approximate: end-of-run
        in-flight uops count as wrong path)."""
        return max(0, self.fetched_uops - self.committed_uops)

    @property
    def taken_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.taken_branches / self.branches

    @property
    def filtered_fraction(self) -> float:
        """Share of branches with no explicit critique (Table 4's "% none")."""
        if self.census.total == 0:
            return 0.0
        return self.census.none_total / self.census.total

    # -- bookkeeping --------------------------------------------------------------

    def merge(self, other: "RunStats") -> None:
        """Accumulate another run (used for suite averages)."""
        self.branches += other.branches
        self.committed_uops += other.committed_uops
        self.mispredicts += other.mispredicts
        self.prophet_mispredicts += other.prophet_mispredicts
        self.static_branches += other.static_branches
        self.forced_critiques += other.forced_critiques
        self.critic_redirects += other.critic_redirects
        self.fetched_uops += other.fetched_uops
        self.taken_branches += other.taken_branches
        self.census.merge(other.census)
        if other.per_site is not None:
            if self.per_site is None:
                # Copy rows, never alias: the merged stats must not share
                # mutable row lists with the contributing run.
                self.per_site = {pc: list(row) for pc, row in other.per_site.items()}
            else:
                per_site = self.per_site
                for pc, row in other.per_site.items():
                    mine = per_site.get(pc)
                    if mine is None:
                        per_site[pc] = list(row)
                    else:
                        for i, value in enumerate(row):
                            mine[i] += value

    def record_site(self, pc: int, prophet_misp: bool, final_misp: bool) -> None:
        """Accumulate one branch into the per-site attribution table."""
        if self.per_site is None:
            self.per_site = {}
        row = self.per_site.setdefault(pc, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += int(prophet_misp)
        row[2] += int(final_misp)
        row[3] += int(prophet_misp and not final_misp)
        row[4] += int(final_misp and not prophet_misp)

    def summary(self) -> dict[str, float]:
        """Flat snapshot for tables and EXPERIMENTS.md."""
        return {
            "branches": self.branches,
            "committed_uops": self.committed_uops,
            "mispredicts": self.mispredicts,
            "misp_per_kuops": round(self.misp_per_kuops, 4),
            "mispredict_pct": round(100.0 * self.mispredict_rate, 4),
            # None, not float("inf"): summaries are serialized to JSON and
            # the Infinity token is not valid JSON (a zero-mispredict cell
            # would poison the whole payload for strict parsers).
            "uops_per_flush": (
                round(self.uops_per_flush, 1) if self.mispredicts else None
            ),
            "prophet_misp_per_kuops": round(self.prophet_misp_per_kuops, 4),
            "filtered_pct": round(100.0 * self.filtered_fraction, 2),
        }
