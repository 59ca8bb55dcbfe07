"""Struct-of-arrays fleet engine for the model-aware cache (§4).

:class:`ModelAwareCacheFleet` lays out ``F`` independent caches as one
block of contiguous numpy columns (row = cache × line slot): the six
RegressionStats sufficient sums ``(n, Σx, Σy, Σx², Σxy, Σy²)``, the
ring-buffered sample pairs, and the memoized fit/benefit/penalty
columns with their validity flags.  :meth:`~ModelAwareCacheFleet.observe_lanes`
advances many caches by one observation each with the §4 decision
procedure evaluated lane-parallel.  This is the program's one §4
engine: every :class:`~repro.models.cache_manager.ModelAwareCache` is a
lane of a fleet and answers its whole API from these columns.  The
scalar reading of §4 over :class:`~repro.models.cache.CacheLine`
objects lives in the tests (``tests/models/scalar_oracle.py``) as the
oracle every fleet decision is tested against (golden-trace and
hypothesis suites).

Why are lanes caches and not neighbors?  The §4 decision procedure is
inherently sequential *within* a cache: ~85% of full-cache decisions
augment, and an augment mutates a victim line chosen across the whole
cache, so consecutive observations of one node conflict and cannot be
evaluated as independent lanes without changing results.  Independent
caches in lock-step vectorize cleanly, which is exactly the shape of a
measurement round (every node snoops one sample per tick).

Bit-identity with the scalar oracle rests on a few load-bearing rules:

* eviction applies sums *subtract-then-add* while decision scoring
  builds candidates *add-then-subtract* — exactly the scalar orders;
* a row whose count reaches zero snaps its sums to exact ``0.0``;
* drift resyncs accumulate left-to-right (``cumsum`` row prefixes),
  matching the scalar loop — ``np.sum``'s pairwise order would differ
  in the last bits;
* every comparison applies the tie rule of
  :data:`~repro.models.cache.TIE_RTOL` to the same closed-form scores:
  benefits within its tolerance are equal (REJECT before SHIFT before
  AUGMENT), a penalty within it of zero is exactly ``0.0``, and equal
  penalties evict the lowest neighbor id.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.cache import STATS_SYNC_INTERVAL, TIE_RTOL, pairs_for_budget
from repro.models.regression import fit_coefficients

__all__ = ["ModelAwareCacheFleet", "ACTION_CODES", "ACTION_NAMES"]

_DEG = 1e-12  # regression._DEGENERATE_RTOL, inlined on the hot path
_SYNC = STATS_SYNC_INTERVAL

#: Compact action encoding used by the fleet's vectorized
#: :meth:`ModelAwareCacheFleet.observe_lanes` (int8 per lane instead of
#: a Python string per cache).  Names match :class:`~repro.models.policy.Action`.
ACTION_CODES = {"reject": 0, "shift": 1, "augment": 2, "append": 3, "newcomer": 4}
ACTION_NAMES = {code: name for name, code in ACTION_CODES.items()}


def _vfit(n, sx, sy, sxx, sxy):
    """Vectorized Lemma 1 fit; lane-for-lane the scalar ``fit_coefficients``.

    Non-degenerate lanes compute ``b`` from the pre-``where`` slope, so
    their bits match the scalar division sequence exactly; degenerate
    lanes are overwritten by the ``where`` selects (the masked-out
    divisions may raise IEEE flags, silenced by the caller's errstate).
    """
    nsxx = n * sxx
    sxsx = sx * sx
    den = nsxx - sxsx
    scale = np.maximum(np.maximum(nsxx, sxsx), 1.0)
    degen = den <= _DEG * scale
    safe = np.where(degen, 1.0, den)
    a = (n * sxy - sx * sy) / safe
    b = (sy - a * sx) / n
    a = np.where(degen, 0.0, a)
    b = np.where(degen, sy / n, b)
    return a, b


def _vsse(n, cxx, cxy, cyy, mean_x, mean_y, a, b):
    """Vectorized ``model_sse`` over precomputed centered moments.

    The ``where`` clamp reproduces the scalar ``total if total > 0.0
    else 0.0`` exactly, NaN included (NaN compares false → clamped to 0).
    """
    mr = mean_y - a * mean_x - b
    tot = cyy - 2.0 * a * cxy + a * a * cxx + n * mr * mr
    return np.where(tot > 0.0, tot, 0.0)


def _snap_penalty(p, scale):
    """The tie rule's penalty clause: ``p`` under tolerance becomes ``0.0``."""
    return np.where(p < TIE_RTOL * np.where(scale > 1.0, scale, 1.0), 0.0, p)


def _check_ids(js) -> None:
    # ``ids`` marks a free slot with -1, so a negative id would match a
    # free slot and alias an empty row.
    if js.size and js.min() < 0:
        raise ValueError(f"neighbor ids must be non-negative, got {int(js.min())}")


class ModelAwareCacheFleet:
    """``F`` independent §4 caches advanced in lock-step, lane-parallel.

    Row ``c * max_lines + s`` holds slot ``s`` of cache ``c``; all
    columns are contiguous numpy arrays over those rows.  One
    :meth:`observe_lanes` call advances each listed cache by one
    observation with the full-cache decision procedure evaluated
    vectorized across lanes.  Because the lanes are
    *independent caches*, a batch is trivially equivalent to running
    each cache's scalar procedure in sequence: no lane reads or writes
    another lane's rows.  Warm-up appends (a cache below its pair
    budget, a neighbor's first sample claiming a free line slot) and
    full-cache decisions run column-wise; only a first sample that
    evicts a newcomer victim or needs more line slots drops to the
    scalar path row-wise.

    ``SnapshotRuntime`` binds node ``i``'s ``ModelAwareCache`` to lane
    ``i`` of a shared fleet, and its ``BatchedObservationRouter`` feeds
    the fleet through :meth:`observe_lanes`.  A ``ModelAwareCache``
    outside a runtime is lane 0 of a private one-lane fleet, driven
    through the per-lane :meth:`observe`.

    Parameters
    ----------
    n_caches:
        Number of independent caches (lanes).
    cache_bytes:
        Byte budget per cache (§6.1's 2,048 default elsewhere).
    max_lines:
        Line slots per cache — the maximum distinct neighbors a cache
        can hold at once (node degree).
    ring_cap:
        Initial per-row ring capacity in pairs; grows by doubling.
    """

    def __init__(self, n_caches: int, cache_bytes: int,
                 max_lines: int = 8, ring_cap: int = 64) -> None:
        if n_caches <= 0:
            raise ValueError(f"need at least one cache, got {n_caches}")
        if max_lines <= 0:
            raise ValueError(f"need at least one line slot, got {max_lines}")
        F, S, C = int(n_caches), int(max_lines), int(ring_cap)
        self.F, self.S, self.C = F, S, C
        self.cache_bytes = int(cache_bytes)
        self.capacity_pairs = pairs_for_budget(self.cache_bytes)
        R = F * S
        self.ids = np.full(R, -1, dtype=np.int64)
        self.n = np.zeros(R, dtype=np.int64)
        self.sx = np.zeros(R); self.sy = np.zeros(R)
        self.sxx = np.zeros(R); self.sxy = np.zeros(R); self.syy = np.zeros(R)
        self.fa = np.zeros(R); self.fb = np.zeros(R)
        self.fok = np.zeros(R, dtype=bool)
        self.ben = np.zeros(R); self.bok = np.zeros(R, dtype=bool)
        self.pen = np.zeros(R); self.pok = np.zeros(R, dtype=bool)
        self.esync = np.zeros(R, dtype=np.int64)
        self.rx = np.zeros((R, C)); self.ry = np.zeros((R, C))
        self.head = np.zeros(R, dtype=np.int64)
        self.total = np.zeros(F, dtype=np.int64)
        self.rr = np.full(F, -1, dtype=np.int64)
        # id -> slot within cache: the O(1) index of the scalar
        # :meth:`_row` lookups.  :meth:`observe_lanes` compares against
        # the ``ids`` column instead.
        self.slot = [dict() for _ in range(F)]

    # -- scalar per-lane operations (first samples, rare paths) --------------

    def _row(self, c: int, j: int, make: bool = False) -> Optional[int]:
        s = self.slot[c].get(j)
        if s is None and make:
            base = c * self.S
            for k in range(self.S):
                if self.ids[base + k] < 0:
                    s = k
                    break
            if s is None:
                # The initial max_lines sizing bounds slots by the
                # *static* topology's degree; a topology swap can push
                # a cache past it.  The policy's pair
                # budget still bounds live lines at capacity_pairs, so
                # grow toward that and only fail once eviction itself
                # must have gone wrong.
                if self.S >= self.capacity_pairs:
                    raise ValueError(
                        f"cache {c} already tracks {self.S} neighbors at its "
                        f"pair budget; cannot admit neighbor {j}"
                    )
                s = self.S
                self._grow_lines(min(2 * self.S, self.capacity_pairs))
                base = c * self.S
            self.slot[c][j] = s
            self._claim_rows(base + s, j)
        return None if s is None else c * self.S + s

    def _claim_rows(self, r, j) -> None:
        """Give row(s) ``r`` to neighbor(s) ``j``: an empty line, no
        memo (the caller records the slot)."""
        self.ids[r] = j
        self.n[r] = 0
        self.sx[r] = self.sy[r] = 0.0
        self.sxx[r] = self.sxy[r] = self.syy[r] = 0.0
        self.fok[r] = self.bok[r] = self.pok[r] = False
        self.esync[r] = 0
        self.head[r] = 0

    def _free_row(self, c: int, r: int) -> None:
        j = int(self.ids[r])
        del self.slot[c][j]
        self.ids[r] = -1
        self.n[r] = 0

    def _pairs(self, r: int) -> list[tuple[float, float]]:
        n = int(self.n[r]); h = int(self.head[r]); C = self.C
        idx = (h + np.arange(n)) % C
        return list(zip(self.rx[r, idx].tolist(), self.ry[r, idx].tolist()))

    def _append(self, c: int, r: int, x: float, y: float) -> None:
        if self.n[r] >= self.C - 1:
            self._grow_rings()
        t = (self.head[r] + self.n[r]) % self.C
        self.rx[r, t] = x; self.ry[r, t] = y
        self.n[r] += 1
        self.sx[r] += x; self.sy[r] += y
        self.sxx[r] += x * x; self.sxy[r] += x * y; self.syy[r] += y * y
        self.fok[r] = self.bok[r] = self.pok[r] = False
        self.total[c] += 1

    def _evict(self, c: int, r: int) -> None:
        h = int(self.head[r])
        ox = float(self.rx[r, h]); oy = float(self.ry[r, h])
        n0 = int(self.n[r])
        sxx0 = float(self.sxx[r]); syy0 = float(self.syy[r])
        dominant = ox * ox > 0.5 * sxx0 or oy * oy > 0.5 * syy0
        n0 -= 1
        self.n[r] = n0
        self.head[r] = (h + 1) % self.C
        if n0 == 0:
            self.sx[r] = self.sy[r] = 0.0
            self.sxx[r] = self.sxy[r] = self.syy[r] = 0.0
        else:
            self.sx[r] -= ox; self.sy[r] -= oy
            self.sxx[r] = sxx0 - ox * ox
            self.sxy[r] -= ox * oy
            self.syy[r] = syy0 - oy * oy
        es = int(self.esync[r]) + 1
        if dominant or es >= _SYNC:
            self._resync_row(r)
        else:
            self.esync[r] = es
        self.fok[r] = self.bok[r] = self.pok[r] = False
        self.total[c] -= 1
        if n0 == 0:
            self._free_row(c, r)

    def _resync_row(self, r: int) -> None:
        sx = sy = sxx = sxy = syy = 0.0
        for px, py in self._pairs(r):
            sx += px; sy += py
            sxx += px * px; sxy += px * py; syy += py * py
        self.sx[r] = sx; self.sy[r] = sy
        self.sxx[r] = sxx; self.sxy[r] = sxy; self.syy[r] = syy
        self.esync[r] = 0

    def _resync_rows(self, rows: np.ndarray) -> None:
        """Batched exact resync: per-row prefix sums in ring order.

        Row-wise ``cumsum`` accumulates left-to-right, so reading the
        prefix at position ``n - 1`` is bit-identical to the scalar
        sequential loop; ring slots past ``n - 1`` never enter that
        prefix.  One signed-zero wrinkle: ``cumsum`` starts from the
        first element while the scalar loop starts from ``0.0``, so an
        all ``-0.0`` prefix sums to ``-0.0`` here but ``+0.0`` there.
        A sum seeded with ``+0.0`` can never round to ``-0.0``, so
        adding ``+0.0`` (which only flips ``-0.0``) closes the gap.
        """
        nr = self.n[rows]
        k = np.arange(int(nr.max()))
        idx = (self.head[rows][:, None] + k[None, :]) % self.C
        px = self.rx[rows[:, None], idx]
        py = self.ry[rows[:, None], idx]
        ii = np.arange(rows.size)
        last = nr - 1
        self.sx[rows] = px.cumsum(axis=1)[ii, last] + 0.0
        self.sy[rows] = py.cumsum(axis=1)[ii, last] + 0.0
        self.sxx[rows] = (px * px).cumsum(axis=1)[ii, last] + 0.0
        self.sxy[rows] = (px * py).cumsum(axis=1)[ii, last] + 0.0
        self.syy[rows] = (py * py).cumsum(axis=1)[ii, last] + 0.0
        self.esync[rows] = 0

    def _grow_rings(self) -> None:
        # Double capacity, straightening every ring to head 0 (a pure
        # relayout: pair order and all sums are untouched).
        C, C2 = self.C, self.C * 2
        R = self.rx.shape[0]
        idx = (self.head[:, None] + np.arange(C)[None, :]) % C
        rx = np.zeros((R, C2)); ry = np.zeros((R, C2))
        rx[:, :C] = np.take_along_axis(self.rx, idx, axis=1)
        ry[:, :C] = np.take_along_axis(self.ry, idx, axis=1)
        self.rx = rx; self.ry = ry
        self.head[:] = 0
        self.C = C2

    def _current_fit(self, r: int) -> tuple[float, float]:
        if self.fok[r]:
            return float(self.fa[r]), float(self.fb[r])
        a, b = fit_coefficients(int(self.n[r]), float(self.sx[r]), float(self.sy[r]),
                                float(self.sxx[r]), float(self.sxy[r]))
        self.fa[r] = a; self.fb[r] = b; self.fok[r] = True
        return a, b

    def _benefit_scalar(self, r: int) -> float:
        if self.bok[r]:
            return float(self.ben[r])
        n_ = int(self.n[r])
        a, b = self._current_fit(r)
        sx_ = float(self.sx[r]); sy_ = float(self.sy[r])
        sxx_ = float(self.sxx[r]); sxy_ = float(self.sxy[r]); syy_ = float(self.syy[r])
        mean_x = sx_ / n_; mean_y = sy_ / n_
        cxx = sxx_ - sx_ * mean_x; cxy = sxy_ - sx_ * mean_y; cyy = syy_ - sy_ * mean_y
        mr = mean_y - a * mean_x - b
        tot = cyy - 2.0 * a * cxy + a * a * cxx + n_ * mr * mr
        sse = tot if tot > 0.0 else 0.0
        ben = ((syy_ if syy_ > 0.0 else 0.0) - sse) / n_
        self.ben[r] = ben; self.bok[r] = True
        return ben

    def _penalty_scalar(self, r: int) -> float:
        if self.pok[r]:
            return float(self.pen[r])
        n_ = int(self.n[r])
        full = self._benefit_scalar(r)
        syy_ = float(self.syy[r])
        p = full if n_ == 1 else full - self._reduced_benefit(r)
        scale = syy_ / n_
        if p < TIE_RTOL * (scale if scale > 1.0 else 1.0):
            p = 0.0
        self.pen[r] = p; self.pok[r] = True
        return p

    def _reduced_benefit(self, r: int) -> float:
        """Benefit over row ``r``'s full line of the fit without its oldest pair."""
        n_ = int(self.n[r])
        sx_ = float(self.sx[r]); sy_ = float(self.sy[r])
        sxx_ = float(self.sxx[r]); sxy_ = float(self.sxy[r]); syy_ = float(self.syy[r])
        h = int(self.head[r])
        ox = float(self.rx[r, h]); oy = float(self.ry[r, h])
        if ox * ox > 0.5 * sxx_ or oy * oy > 0.5 * syy_:
            pairs = self._pairs(r)[1:]
            rn = len(pairs)
            rsx = rsy = rsxx = rsxy = 0.0
            for px, py in pairs:
                rsx += px; rsy += py; rsxx += px * px; rsxy += px * py
            a, b = fit_coefficients(rn, rsx, rsy, rsxx, rsxy)
        else:
            a, b = fit_coefficients(n_ - 1, sx_ - ox, sy_ - oy, sxx_ - ox * ox, sxy_ - ox * oy)
        mean_x = sx_ / n_; mean_y = sy_ / n_
        cxx = sxx_ - sx_ * mean_x; cxy = sxy_ - sx_ * mean_y; cyy = syy_ - sy_ * mean_y
        mr = mean_y - a * mean_x - b
        tot = cyy - 2.0 * a * cxy + a * a * cxx + n_ * mr * mr
        rsse = tot if tot > 0.0 else 0.0
        return ((syy_ if syy_ > 0.0 else 0.0) - rsse) / n_

    def observe(self, c: int, j: int, x: float, y: float) -> str:
        """Advance cache ``c`` by one observation, lane by itself: a
        standalone cache's path, a handler's mid-burst sync, and the
        first samples :meth:`observe_lanes` hands over."""
        if j < 0:
            raise ValueError(f"neighbor ids must be non-negative, got {j}")
        x = float(x); y = float(y)
        r = self._row(c, j)
        if self.total[c] < self.capacity_pairs:
            if r is None:
                r = self._row(c, j, make=True)
            self._append(c, r, x, y)
            return "append"
        if r is None or self.n[r] == 0:
            return self._newcomer(c, j, x, y)
        return self._decide(c, r, j, x, y)

    def _newcomer(self, c: int, j: int, x: float, y: float) -> str:
        base = c * self.S
        cands = sorted(
            int(self.ids[base + k]) for k in range(self.S)
            if self.ids[base + k] >= 0 and self.ids[base + k] != j and self.n[base + k] > 0
        )
        if not cands:
            return "reject"
        victim = None
        for k in cands:
            if k > self.rr[c]:
                victim = k
                break
        if victim is None:
            victim = cands[0]
        self.rr[c] = victim
        self._evict(c, base + self.slot[c][victim])
        r = self._row(c, j, make=True)
        self._append(c, r, x, y)
        return "newcomer"

    def _decide(self, c: int, r: int, j: int, x: float, y: float) -> str:
        n0 = int(self.n[r])
        sx0 = float(self.sx[r]); sy0 = float(self.sy[r])
        sxx0 = float(self.sxx[r]); sxy0 = float(self.sxy[r]); syy0 = float(self.syy[r])
        xx = x * x; xy = x * y; yy = y * y
        n1 = n0 + 1
        sx1 = sx0 + x; sy1 = sy0 + y
        sxx1 = sxx0 + xx; sxy1 = sxy0 + xy; syy1 = syy0 + yy
        h = int(self.head[r])
        ox = float(self.rx[r, h]); oy = float(self.ry[r, h])
        sxs = sx1 - ox; sys_ = sy1 - oy
        sxxs = sxx1 - ox * ox; sxys = sxy1 - ox * oy
        baseline = (syy1 if syy1 > 0.0 else 0.0) / n1
        a_cur, b_cur = self._current_fit(r)
        a_sh, b_sh = fit_coefficients(n0, sxs, sys_, sxxs, sxys)
        a_aug, b_aug = fit_coefficients(n1, sx1, sy1, sxx1, sxy1)
        mean_x = sx1 / n1; mean_y = sy1 / n1
        cxx = sxx1 - sx1 * mean_x; cxy = sxy1 - sx1 * mean_y; cyy = syy1 - sy1 * mean_y
        mr = mean_y - a_cur * mean_x - b_cur
        tot = cyy - 2.0 * a_cur * cxy + a_cur * a_cur * cxx + n1 * mr * mr
        sse_cur = tot if tot > 0.0 else 0.0
        mr = mean_y - a_sh * mean_x - b_sh
        tot = cyy - 2.0 * a_sh * cxy + a_sh * a_sh * cxx + n1 * mr * mr
        sse_sh = tot if tot > 0.0 else 0.0
        mr = mean_y - a_aug * mean_x - b_aug
        tot = cyy - 2.0 * a_aug * cxy + a_aug * a_aug * cxx + n1 * mr * mr
        sse_aug = tot if tot > 0.0 else 0.0
        b_c = baseline - sse_cur / n1
        b_s = baseline - sse_sh / n1
        b_a = baseline - sse_aug / n1
        tol = TIE_RTOL * (baseline if baseline > 1.0 else 1.0)
        if b_c >= b_s - tol and b_c >= b_a - tol:
            return "reject"
        if b_s >= b_a - tol:
            self._evict(c, r)
            r = self._row(c, j, make=True)  # re-create if eviction emptied it
            self._append(c, r, x, y)
            return "shift"
        gain = b_a - b_s
        victim = self._cheapest_victim(c, r, gain)
        if victim is not None:
            self._evict(c, victim)
            self._append(c, r, x, y)
            self.fa[r] = a_aug; self.fb[r] = b_aug; self.fok[r] = True
            self.ben[r] = ((syy1 if syy1 > 0.0 else 0.0) - sse_aug) / n1
            self.bok[r] = True
            return "augment"
        if b_s > b_c + tol:
            self._evict(c, r)
            r = self._row(c, j, make=True)
            self._append(c, r, x, y)
            return "shift"
        return "reject"

    def _cheapest_victim(self, c: int, exclude_row: int, below: float) -> Optional[int]:
        base = c * self.S
        best_pen = None; best_id = -1; best_row = -1
        for k in range(self.S):
            r = base + k
            i = int(self.ids[r])
            if i < 0 or r == exclude_row or self.n[r] == 0:
                continue
            p = float(self.pen[r]) if self.pok[r] else self._penalty_scalar(r)
            if best_pen is None or p < best_pen or (p == best_pen and i < best_id):
                best_pen = p; best_id = i; best_row = r
        if best_pen is not None and best_pen < below:
            return best_row
        return None

    # -- the vectorized batch step --------------------------------------------

    def observe_lanes(self, cache_ids, neighbor_ids, own_values, neighbor_values) -> np.ndarray:
        """Advance a *subset* of caches by one observation each.

        ``cache_ids`` must be distinct (one observation per cache — a
        cache's decisions are order-dependent, so feeding it twice in
        one call would race its own column updates).  Returns an int8
        array of :data:`ACTION_CODES` per lane.  A neighbor's first
        sample into a full cache, or into one without a free line slot,
        takes the scalar per-lane :meth:`observe`; everything else —
        warm-up appends and slot claims, candidate scoring, victim
        selection, eviction, append, memo refresh — runs column-wise.
        """
        cs = np.asarray(cache_ids, dtype=np.int64)
        js = np.asarray(neighbor_ids, dtype=np.int64)
        xs = np.asarray(own_values, dtype=np.float64)
        ys = np.asarray(neighbor_values, dtype=np.float64)
        if not (cs.shape == js.shape == xs.shape == ys.shape) or cs.ndim != 1:
            raise ValueError(
                f"observe_lanes wants four equal-length 1-D arrays, got "
                f"{cs.shape}/{js.shape}/{xs.shape}/{ys.shape}"
            )
        _check_ids(js)
        # Each lane's slot: the column of its cache row holding ``j``,
        # or -1 where none does (free slots hold id -1).
        hit = self.ids.reshape(self.F, self.S)[cs] == js[:, None]
        slot = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._observe_lanes(cs, js, xs, ys, slot)

    def _observe_lanes(self, cs, js, xs, ys, slot) -> np.ndarray:
        # Lane dispatch.  Lanes are distinct caches, so the three groups
        # below touch disjoint rows; only the shared ring capacity and
        # line stride can change under a later group (pure relayouts),
        # so both are read after the group that may grow them.
        actions = np.zeros(cs.size, dtype=np.int8)  # 0 = reject
        known = slot >= 0
        full = self.total[cs] >= self.capacity_pairs
        # A first sample into a cache below budget claims the lowest
        # free slot, as ``_row(make=True)`` does (growth only appends
        # slots).  First samples into full caches (newcomer) or caches
        # with no free slot (line growth) take the scalar path.
        claim = np.flatnonzero(~known & ~full)
        if claim.size:
            free = self.ids.reshape(self.F, self.S)[cs[claim]] < 0
            has = free.any(axis=1)
            claim, lowest = claim[has], free[has].argmax(axis=1)
        scalar = ~known
        scalar[claim] = False
        for i in np.flatnonzero(scalar):
            actions[i] = ACTION_CODES[
                self.observe(int(cs[i]), int(js[i]), float(xs[i]), float(ys[i]))
            ]
        F, S = self.F, self.S
        if claim.size:
            slot[claim] = lowest
            cc, jc = cs[claim], js[claim]
            for c, j, s in zip(cc.tolist(), jc.tolist(), lowest.tolist()):
                self.slot[c][j] = s
            self._claim_rows(cc * S + lowest, jc)
        rows = cs * S + slot
        # Warm-up: a neighbor of a cache below its pair budget appends,
        # exactly as the scalar ``observe`` would.
        warm = np.flatnonzero((slot >= 0) & ~full)
        if warm.size:
            self._append_rows(rows[warm], xs[warm], ys[warm])
            self.total[cs[warm]] += 1
            actions[warm] = ACTION_CODES["append"]
        fast = known & full
        if not fast.any():
            return actions
        C = self.C
        fr = rows[fast]
        x = xs[fast]; y = ys[fast]
        n0 = self.n[fr]
        sx0 = self.sx[fr]; sy0 = self.sy[fr]
        sxx0 = self.sxx[fr]; sxy0 = self.sxy[fr]; syy0 = self.syy[fr]
        xx = x * x; xy = x * y; yy = y * y
        n1 = n0 + 1
        n1f = n1.astype(np.float64)
        sx1 = sx0 + x; sy1 = sy0 + y
        sxx1 = sxx0 + xx; sxy1 = sxy0 + xy; syy1 = syy0 + yy
        h = self.head[fr]
        ox = self.rx[fr, h]; oy = self.ry[fr, h]
        sxs = sx1 - ox; sys_ = sy1 - oy
        sxxs = sxx1 - ox * ox; sxys = sxy1 - ox * oy
        baseline = np.where(syy1 > 0.0, syy1, 0.0) / n1f

        # current fit: refresh stale rows with a vectorized scatter
        n0f = n0.astype(np.float64)
        stale_fit = ~self.fok[fr]
        if stale_fit.any():
            sf = fr[stale_fit]
            a_f, b_f = _vfit(n0f[stale_fit], sx0[stale_fit], sy0[stale_fit],
                             sxx0[stale_fit], sxy0[stale_fit])
            self.fa[sf] = a_f; self.fb[sf] = b_f; self.fok[sf] = True
        a_cur = self.fa[fr]; b_cur = self.fb[fr]

        a_sh, b_sh = _vfit(n0f, sxs, sys_, sxxs, sxys)
        a_aug, b_aug = _vfit(n1f, sx1, sy1, sxx1, sxy1)

        mean_x = sx1 / n1f; mean_y = sy1 / n1f
        cxx = sxx1 - sx1 * mean_x; cxy = sxy1 - sx1 * mean_y; cyy = syy1 - sy1 * mean_y
        sse_cur = _vsse(n1f, cxx, cxy, cyy, mean_x, mean_y, a_cur, b_cur)
        sse_sh = _vsse(n1f, cxx, cxy, cyy, mean_x, mean_y, a_sh, b_sh)
        sse_aug = _vsse(n1f, cxx, cxy, cyy, mean_x, mean_y, a_aug, b_aug)

        b_c = baseline - sse_cur / n1f
        b_s = baseline - sse_sh / n1f
        b_a = baseline - sse_aug / n1f

        # The tie rule, lane for lane as in the scalar decision.
        tol = TIE_RTOL * np.where(baseline > 1.0, baseline, 1.0)
        reject = (b_c >= b_s - tol) & (b_c >= b_a - tol)
        shift = ~reject & (b_s >= b_a - tol)
        augment = ~reject & ~shift

        flane = np.flatnonzero(fast)   # input position per fast lane
        fcs = cs[flane]                # cache index per fast lane
        # Augment lanes: refresh every stale penalty fleet-wide (they
        # all feed some lane's victim scan), then select victims as a
        # masked lexicographic (penalty, id) minimum per lane.
        aug_lanes = np.flatnonzero(augment)
        aug_apply = np.empty(0, dtype=np.int64)
        vict_rows = np.empty(0, dtype=np.int64)
        if aug_lanes.size:
            stale = np.flatnonzero((~self.pok) & (self.ids >= 0) & (self.n > 0))
            if stale.size:
                self._refresh_penalties(stale)
            cA = fcs[aug_lanes]
            rA = fr[aug_lanes]
            gain = b_a[aug_lanes] - b_s[aug_lanes]
            idsC = self.ids.reshape(F, S)[cA]
            nC = self.n.reshape(F, S)[cA]
            penC = self.pen.reshape(F, S)[cA]
            valid = (idsC >= 0) & (nC > 0)
            valid[np.arange(cA.size), rA - cA * S] = False
            penC[~valid] = np.inf
            minp = penC.min(axis=1)
            BIG = np.int64(2) ** 62
            vid = np.where(valid & (penC == minp[:, None]), idsC, BIG).min(axis=1)
            hasv = minp < gain
            vslot = np.where(idsC == vid[:, None], np.arange(S), S).min(axis=1)
            aug_apply = aug_lanes[hasv]
            vict_rows = (cA * S + vslot)[hasv]
            nov = aug_lanes[~hasv]
            if nov.size:
                # No affordable victim: shift if it still beats current.
                sh_extra = nov[b_s[nov] > b_c[nov] + tol[nov]]
                shift[sh_extra] = True

        shift_lanes = np.flatnonzero(shift)
        shift_rows = fr[shift_lanes]
        # Vectorized evict: shift rows evict their own oldest pair,
        # augment lanes evict the victim's.  All rows are distinct (one
        # lane per cache), so the column updates cannot conflict.
        E = np.concatenate([shift_rows, vict_rows])
        if E.size:
            hE = self.head[E]
            oxE = self.rx[E, hE]; oyE = self.ry[E, hE]
            sxxE = self.sxx[E]; syyE = self.syy[E]
            dom = (oxE * oxE > 0.5 * sxxE) | (oyE * oyE > 0.5 * syyE)
            nE = self.n[E] - 1
            self.n[E] = nE
            self.head[E] = (hE + 1) % C
            empt = nE == 0
            self.sx[E] -= oxE; self.sy[E] -= oyE
            self.sxx[E] = sxxE - oxE * oxE
            self.sxy[E] -= oxE * oyE
            self.syy[E] = syyE - oyE * oyE
            esE = self.esync[E] + 1
            self.esync[E] = esE
            self.fok[E] = False; self.bok[E] = False; self.pok[E] = False
            if empt.any():
                ze = E[empt]
                self.sx[ze] = 0.0; self.sy[ze] = 0.0
                self.sxx[ze] = 0.0; self.sxy[ze] = 0.0; self.syy[ze] = 0.0
                self.esync[ze] = 0
                # Victim rows that emptied: the line is deleted (slot
                # freed).  Shift rows that emptied: the scalar path
                # deletes then immediately recreates the line for the
                # same id, so keeping the zeroed row is the same state.
                n_shift = shift_rows.size
                for k in np.flatnonzero(empt):
                    if k >= n_shift:
                        r = int(E[k])
                        self._free_row(r // S, r)
            rs = E[(dom | (esE >= _SYNC)) & ~empt]
            if rs.size:
                self._resync_rows(rs)

        # Vectorized append of the new pair to each applying lane's row.
        apply_lanes = np.concatenate([shift_lanes, aug_apply])
        if apply_lanes.size:
            self._append_rows(fr[apply_lanes], x[apply_lanes], y[apply_lanes])
        if aug_apply.size:
            ar = fr[aug_apply]
            n1a = n1f[aug_apply]
            self.fa[ar] = a_aug[aug_apply]; self.fb[ar] = b_aug[aug_apply]
            self.fok[ar] = True
            s1 = syy1[aug_apply]
            s1c = np.where(s1 > 0.0, s1, 0.0)
            ben_a = (s1c - sse_aug[aug_apply]) / n1a
            self.ben[ar] = ben_a
            self.bok[ar] = True
            # Eager penalty: the augmented line's reduced fit equals the
            # decision's shift fit bit-for-bit (same sums, same ops) and
            # its reduced SSE equals sse_sh — so the penalty is free
            # unless the oldest pair is dominant (those rows stay stale
            # and take the rebuild path at the next victim scan).
            oxa = ox[aug_apply]; oya = oy[aug_apply]
            okp = ~((oxa * oxa > 0.5 * sxx1[aug_apply]) | (oya * oya > 0.5 * s1))
            p = _snap_penalty(ben_a - (s1c - sse_sh[aug_apply]) / n1a, s1 / n1a)
            pr_ = ar[okp]
            self.pen[pr_] = p[okp]; self.pok[pr_] = True

        actions[flane[shift_lanes]] = ACTION_CODES["shift"]
        actions[flane[aug_apply]] = ACTION_CODES["augment"]
        return actions

    def append_runs(self, cs, js, xs, ys) -> np.ndarray:
        """Apply every sample of each cache whose run stays in warm-up,
        in one :meth:`_append_rows` pass; returns the mask of the
        samples applied (each an ``append``).

        Sample ``i`` is neighbor ``js[i]``'s value ``ys[i]`` heard by
        cache ``cs[i]`` while its own value was ``xs[i]``, in arrival
        order.  A cache's ``k`` samples stay in warm-up when ``total +
        k <= capacity_pairs`` (no sample meets a full cache) and they
        land on ``k`` distinct rows: distinct neighbors, with a free
        line slot for each new one.  Each of them then appends, as
        :meth:`observe` would one by one: a new neighbor claims the
        lowest free slot, in arrival order.  The other caches' samples
        are left untouched for :meth:`observe_lanes`.

        Rows are found by key ``(cache, neighbor)`` in the sorted keys
        of the occupied rows, the ``ids`` column that the slot dicts
        mirror, so no samples × line-slots matrix is built.
        """
        cs = np.asarray(cs, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        n_samples = cs.size
        if not n_samples:
            return np.zeros(0, dtype=bool)
        _check_ids(js)
        F, S = self.F, self.S
        ids = self.ids
        stride = max(int(ids.max()), int(js.max())) + 1
        occupied = np.flatnonzero(ids >= 0)
        okeys = (occupied // S) * stride + ids[occupied]
        order = np.argsort(okeys)
        okeys, occupied = okeys[order], occupied[order]
        keys = cs * stride + js
        by_key = np.argsort(keys)
        sorted_keys = keys[by_key]
        at = np.searchsorted(okeys, sorted_keys)
        hit = at < okeys.size
        hit[hit] = okeys[at[hit]] == sorted_keys[hit]
        rows = np.full(n_samples, -1, dtype=np.int64)
        rows[by_key[hit]] = occupied[at[hit]]
        found = rows >= 0
        # Per cache: samples, new neighbors, free slots; a neighbor
        # heard twice disqualifies its cache.
        runs = np.bincount(cs, minlength=F)
        fresh = np.bincount(cs[~found], minlength=F)
        free = S - np.bincount(occupied // S, minlength=F)
        ok = (self.total + runs <= self.capacity_pairs) & (fresh <= free)
        twice = sorted_keys[1:] == sorted_keys[:-1]
        ok[sorted_keys[1:][twice] // stride] = False
        applied = ok[cs]
        claim = np.flatnonzero(applied & ~found)
        if claim.size:
            # The m-th new neighbor of a cache, in arrival order, takes
            # its m-th lowest free slot.
            cc = cs[claim]
            by_cache = np.argsort(cc, kind="stable")
            sorted_cc = cc[by_cache]
            firsts = np.searchsorted(sorted_cc, sorted_cc)
            rank = np.empty(claim.size, dtype=np.int64)
            rank[by_cache] = np.arange(claim.size) - firsts
            caches = sorted_cc[firsts == np.arange(claim.size)]
            owner, slot = np.nonzero(ids.reshape(F, S)[caches] < 0)
            first_free = np.searchsorted(owner, np.arange(caches.size))
            slots = slot[first_free[np.searchsorted(caches, cc)] + rank]
            rows[claim] = cc * S + slots
            jc = js[claim]
            tables = self.slot
            for c, j, s in zip(cc.tolist(), jc.tolist(), slots.tolist()):
                tables[c][j] = s
            self._claim_rows(rows[claim], jc)
        if applied.any():
            xs = np.asarray(xs, dtype=np.float64)
            ys = np.asarray(ys, dtype=np.float64)
            self._append_rows(rows[applied], xs[applied], ys[applied])
            self.total += np.where(ok, runs, 0)
        return applied

    def _append_rows(self, P: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        """Vectorized :meth:`_append` of one pair to each of the distinct
        rows ``P``, minus the per-cache ``total`` update (the caller
        knows whether an eviction offset it).  Each row sees the scalar
        append's float operations in the same order.
        """
        if (self.n[P] >= self.C - 1).any():
            self._grow_rings()
        n = self.n[P]
        t = (self.head[P] + n) % self.C
        self.rx[P, t] = xs; self.ry[P, t] = ys
        self.n[P] = n + 1
        self.sx[P] += xs; self.sy[P] += ys
        self.sxx[P] += xs * xs; self.sxy[P] += xs * ys; self.syy[P] += ys * ys
        self.fok[P] = False; self.bok[P] = False; self.pok[P] = False

    def _refresh_penalties(self, rows: np.ndarray) -> None:
        """Vectorized eviction-penalty refresh for the given rows."""
        n_ = self.n[rows].astype(np.float64)
        sx_ = self.sx[rows]; sy_ = self.sy[rows]
        sxx_ = self.sxx[rows]; sxy_ = self.sxy[rows]; syy_ = self.syy[rows]
        # full benefit: the current fit must be fresh first
        stale_fit = ~self.fok[rows]
        if stale_fit.any():
            a_f, b_f = _vfit(n_[stale_fit], sx_[stale_fit], sy_[stale_fit],
                             sxx_[stale_fit], sxy_[stale_fit])
            sf = rows[stale_fit]
            self.fa[sf] = a_f; self.fb[sf] = b_f; self.fok[sf] = True
        a = self.fa[rows]; b = self.fb[rows]
        mean_x = sx_ / n_; mean_y = sy_ / n_
        cxx = sxx_ - sx_ * mean_x; cxy = sxy_ - sx_ * mean_y; cyy = syy_ - sy_ * mean_y
        stale_ben = ~self.bok[rows]
        syyc = np.where(syy_ > 0.0, syy_, 0.0)
        if stale_ben.any():
            sse = _vsse(n_, cxx, cxy, cyy, mean_x, mean_y, a, b)
            full = (syyc - sse) / n_
            sb = rows[stale_ben]
            self.ben[sb] = full[stale_ben]; self.bok[sb] = True
        full = self.ben[rows]
        h = self.head[rows]
        ox = self.rx[rows, h]; oy = self.ry[rows, h]
        dominant = (ox * ox > 0.5 * sxx_) | (oy * oy > 0.5 * syy_)
        a_r, b_r = _vfit(n_ - 1.0, sx_ - ox, sy_ - oy, sxx_ - ox * ox, sxy_ - ox * oy)
        rsse = _vsse(n_, cxx, cxy, cyy, mean_x, mean_y, a_r, b_r)
        rben = (syyc - rsse) / n_
        p = np.where(self.n[rows] == 1, full, full - rben)
        dmask = (self.n[rows] > 1) & dominant
        if dmask.any():
            # Dominant oldest pair: the reduced fit is rebuilt from the
            # actual pairs excluding the oldest, prefix-summed in ring
            # order starting at head + 1 (cumsum-all-then-subtract
            # would differ in the last bits).
            sub = rows[dmask]
            nr = self.n[sub]
            last = nr - 2
            k = np.arange(int(last.max()) + 1)
            idx = (self.head[sub][:, None] + 1 + k[None, :]) % self.C
            px = self.rx[sub[:, None], idx]
            py = self.ry[sub[:, None], idx]
            ii = np.arange(sub.size)
            rsx = px.cumsum(axis=1)[ii, last]
            rsy = py.cumsum(axis=1)[ii, last]
            rsxx = (px * px).cumsum(axis=1)[ii, last]
            rsxy = (px * py).cumsum(axis=1)[ii, last]
            a_r2, b_r2 = _vfit((nr - 1).astype(np.float64), rsx, rsy, rsxx, rsxy)
            rsse2 = _vsse(n_[dmask], cxx[dmask], cxy[dmask], cyy[dmask],
                          mean_x[dmask], mean_y[dmask], a_r2, b_r2)
            p[dmask] = full[dmask] - (syyc[dmask] - rsse2) / n_[dmask]
        self.pen[rows] = _snap_penalty(p, syy_ / n_)
        self.pok[rows] = True

    # -- read surface ---------------------------------------------------------

    def known_neighbors(self, c: int) -> list[int]:
        """Neighbors of cache ``c`` with at least one stored pair."""
        base = c * self.S
        return sorted(
            j for j, s in self.slot[c].items() if self.n[base + s] > 0
        )

    # -- line-slot growth -----------------------------------------------------

    #: 1-D per-row columns re-laid together when line slots grow.
    _ROW_COLUMNS = ("ids", "n", "sx", "sy", "sxx", "sxy", "syy", "fa", "fb",
                    "fok", "ben", "bok", "pen", "pok", "esync", "head")

    def _grow_lines(self, new_S: int) -> None:
        """Re-lay every row column for ``new_S`` slots per cache.

        Occupied slots keep their indices (rows move from stride ``S``
        to stride ``new_S``), so the per-cache slot dicts stay valid;
        the appended slots are empty (``ids == -1``).
        """
        old_S, F, C = self.S, self.F, self.C
        if new_S <= old_S:
            return
        for name in self._ROW_COLUMNS:
            col = getattr(self, name)
            if name == "ids":
                grown = np.full(F * new_S, -1, dtype=col.dtype)
            else:
                grown = np.zeros(F * new_S, dtype=col.dtype)
            grown.reshape(F, new_S)[:, :old_S] = col.reshape(F, old_S)
            setattr(self, name, grown)
        for name in ("rx", "ry"):
            col = getattr(self, name)
            grown = np.zeros((F * new_S, C), dtype=col.dtype)
            grown.reshape(F, new_S, C)[:, :old_S] = col.reshape(F, old_S, C)
            setattr(self, name, grown)
        self.S = new_S

    def __repr__(self) -> str:
        return (
            f"ModelAwareCacheFleet(caches={self.F}, bytes={self.cache_bytes}, "
            f"max_lines={self.S}, pairs={int(self.total.sum())})"
        )
