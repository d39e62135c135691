"""Online exfiltration baselines: streaming calibration, no replay pass.

The PR 4 audit experiment calibrated
:class:`~repro.telemetry.detectors.ExfiltrationVolumeDetector` offline:
replay the benign trace once, read the peak per-pair window volume,
multiply by a margin, replay again armed.  A real fleet cannot replay
its own traffic; thresholds must come from the live stream.  This
module learns them incrementally:

* :class:`BaselineEstimator` — EWMA mean and variance (no history) and
  a Jain & Chlamtac P² quantile (five markers, no stored samples) in
  one flat estimator with one straight-line update;
* :class:`OnlineExfilBaselines` — one estimator per (device,
  destination), per device, and globally, folded from
  completed :class:`~repro.telemetry.aggregate.SlidingWindowAggregator`
  windows.  The threshold for a pair is the most specific estimator
  with enough folds — pair, then device, then global — and ``inf``
  until anything has been learned (warm-up never alerts);
* :class:`OnlineExfiltrationDetector` — the drop-in detector: same
  alert shape as the offline one, but its budget is
  ``baselines.threshold(device, dst)`` and it folds windows itself via
  the pipeline's ``fold_every``/``on_window`` hooks.

Two disciplines keep this sound:

**Determinism.**  Folds iterate the window's volume table in sorted key
order and every estimator is a pure function of its own sample
sequence, so a fixed record stream — regardless of dict insertion
order upstream — always produces identical baselines, thresholds and
alerts.  The property tests shuffle ingestion order and assert exactly
this.

**Bit-identity.**  The flat estimator does the float operations of the
textbook loop forms of EWMA and P², in their order, and a fold
refreshes only the cached thresholds it touched (no other can change),
so thresholds, snapshots and alerts match them to the last bit; a
golden fold stream in the tests pins this.

**Pollution resistance.**  A sample over the pair's current threshold
is *winsorized* — folded as the threshold value, not its own (counted
in ``clamped``).  Outright rejection would deadlock the estimator below
any legitimately growing signal; clamping lets a calibrated baseline
keep tracking, while an attacker ramping volume can only drag the
threshold up by the margin factor per fold — far slower than any
useful exfiltration, and the detector judges *before* the fold, so the
first over-threshold window alerts regardless.
"""

from __future__ import annotations

import math

from repro.netstack.netfilter import Verdict
from repro.telemetry.detectors import Alert, Detector


class BaselineEstimator:
    """One estimation unit: EWMA moments and a P² tail quantile, flat.

    ``alpha`` is the EWMA weight of the newest sample, with variance
    ``var = (1 - alpha) * (var + alpha * delta**2)``.  The ``p``-quantile
    is Jain & Chlamtac's P²: five markers (minimum, two intermediates,
    the estimate, maximum) moved by parabolic, else linear, interpolation;
    exact below six samples.  Both share one count, and the markers are
    scalar slots, so :meth:`update` is straight-line code with the cell
    search, position increments and interpolation steps unrolled (marker
    0 sits at 1, marker 4 at ``count``).  Every float operation, and its
    order, is that of the textbook loop forms.
    """

    __slots__ = ("alpha", "_decay", "mean", "var", "count", "p", "_warm", "_q0", "_q1", "_q2",
                 "_q3", "_q4", "_n1", "_n2", "_n3", "_d1", "_d2", "_d3", "_dn1", "_dn2", "_dn3")

    def __init__(self, alpha: float = 0.3, p: float = 0.99) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < p < 1.0:
            raise ValueError("the quantile must be in (0, 1)")
        self.alpha = alpha
        self._decay = 1.0 - alpha
        self.mean = 0.0
        self.var = 0.0
        self.count = 0
        self.p = p
        #: The first five samples, sorted; the markers start from them.
        self._warm: list[float] = []
        self._q0 = self._q1 = self._q2 = self._q3 = self._q4 = 0.0
        self._n1, self._n2, self._n3 = 2, 3, 4
        self._d1, self._d2, self._d3 = 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p
        self._dn1, self._dn2, self._dn3 = p / 2.0, p, (1.0 + p) / 2.0

    def update(self, sample: float) -> None:
        sample = float(sample)
        count = self.count = self.count + 1
        if count == 1:
            self.mean = sample
        else:
            delta = sample - self.mean
            increment = self.alpha * delta
            self.mean += increment
            self.var = self._decay * (self.var + delta * increment)
        if count <= 5:
            warm = self._warm
            warm.append(sample)
            warm.sort()
            if count == 5:
                self._q0, self._q1, self._q2, self._q3, self._q4 = warm
            return

        q0, q1, q2, q3, q4 = self._q0, self._q1, self._q2, self._q3, self._q4
        n1, n2, n3 = self._n1, self._n2, self._n3
        # Locate the cell, extending the extremes when needed, and shift
        # the positions of the markers above it (marker 4's is ``count``).
        if sample < q0:
            self._q0 = q0 = sample
            n1, n2, n3 = n1 + 1, n2 + 1, n3 + 1
        elif sample >= q4:
            self._q4 = q4 = sample
        elif sample >= q1:
            if sample >= q2:
                if sample < q3:
                    n3 += 1
            else:
                n2, n3 = n2 + 1, n3 + 1
        else:
            n1, n2, n3 = n1 + 1, n2 + 1, n3 + 1
        d1 = self._d1 = self._d1 + self._dn1
        d2 = self._d2 = self._d2 + self._dn2
        d3 = self._d3 = self._d3 + self._dn3

        # Nudge each interior marker toward its desired position, in
        # order: each one sees its neighbours' already-moved values.
        drift = d1 - n1
        if (drift >= 1.0 and n2 - n1 > 1) or (drift <= -1.0 and 1 - n1 < -1):
            step = 1 if drift > 0 else -1
            candidate = q1 + step / (n2 - 1) * (
                (n1 - 1 + step) * (q2 - q1) / (n2 - n1)
                + (n2 - n1 - step) * (q1 - q0) / (n1 - 1)
            )
            if not q0 < candidate < q2:
                if step > 0:
                    candidate = q1 + step * (q2 - q1) / (n2 - n1)
                else:
                    candidate = q1 + step * (q0 - q1) / (1 - n1)
            q1 = candidate
            n1 += step
        drift = d2 - n2
        if (drift >= 1.0 and n3 - n2 > 1) or (drift <= -1.0 and n1 - n2 < -1):
            step = 1 if drift > 0 else -1
            candidate = q2 + step / (n3 - n1) * (
                (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                + (n3 - n2 - step) * (q2 - q1) / (n2 - n1)
            )
            if not q1 < candidate < q3:
                if step > 0:
                    candidate = q2 + step * (q3 - q2) / (n3 - n2)
                else:
                    candidate = q2 + step * (q1 - q2) / (n1 - n2)
            q2 = candidate
            n2 += step
        drift = d3 - n3
        if (drift >= 1.0 and count - n3 > 1) or (drift <= -1.0 and n2 - n3 < -1):
            step = 1 if drift > 0 else -1
            candidate = q3 + step / (count - n2) * (
                (n3 - n2 + step) * (q4 - q3) / (count - n3)
                + (count - n3 - step) * (q3 - q2) / (n3 - n2)
            )
            if not q2 < candidate < q4:
                if step > 0:
                    candidate = q3 + step * (q4 - q3) / (count - n3)
                else:
                    candidate = q3 + step * (q2 - q3) / (n2 - n3)
            q3 = candidate
            n3 += step
        self._q1, self._q2, self._q3 = q1, q2, q3
        self._n1, self._n2, self._n3 = n1, n2, n3

    @property
    def std(self) -> float:
        return math.sqrt(self.var) if self.var > 0.0 else 0.0

    def value(self) -> float:
        """The current quantile estimate (exact below six samples)."""
        if self.count > 5:
            return self._q2
        warm = self._warm
        if not warm:
            return 0.0
        rank = max(0, min(len(warm) - 1, math.ceil(self.p * len(warm)) - 1))
        return warm[rank]


class OnlineExfilBaselines:
    """Hierarchical streaming thresholds per (device, destination).

    :meth:`fold` consumes one completed aggregator window: every
    in-window (device, destination) volume becomes one sample for the
    pair's baseline, the device's, and the global one.  The threshold
    for a pair is taken from the most specific estimator with at least
    ``min_samples`` folds::

        max(floor, mean + k_sigma * std, margin * P2(p))

    and ``inf`` when nothing qualifies yet — the detector stays silent
    through warm-up instead of alerting on an empty model.

    Thresholds change only at fold boundaries, so they are cached as
    plain floats; :meth:`threshold` is two dict probes worst-case and
    safe inside the publish fast-path guard.  A fold refreshes only the
    entries it sampled; each sample's ceiling is the one before the fold.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        p: float = 0.99,
        k_sigma: float = 6.0,
        margin: float = 2.5,
        # A handful of MTU-sized packets: pairs that rarely appear in a
        # window have Poisson-level variability the EWMA variance (and a
        # five-marker quantile) cannot see, so volumes this small are
        # never anomalous on their own.
        floor: float = 12288.0,
        min_samples: int = 6,
    ) -> None:
        if min_samples < 1:
            raise ValueError("min_samples must be positive")
        self.alpha = alpha
        self.p = p
        self.k_sigma = k_sigma
        self.margin = margin
        self.floor = floor
        self.min_samples = min_samples
        self._pairs: dict[tuple[str, str], BaselineEstimator] = {}
        self._devices: dict[str, BaselineEstimator] = {}
        self._global = BaselineEstimator(alpha, p)
        #: Cached thresholds, refreshed for what each fold touched.
        self._pair_cache: dict[tuple[str, str], float] = {}
        self._device_cache: dict[str, float] = {}
        self._global_cache = math.inf
        #: Lifetime counters.
        self.folds = 0
        self.samples = 0
        #: Samples winsorized by the pollution guard (over-threshold).
        self.clamped = 0

    # -- learning ----------------------------------------------------------------------

    def fold(self, aggregator) -> None:
        """Fold one aggregator window's per-pair volumes in."""
        self.fold_volumes(aggregator.volumes)

    def fold_volumes(self, volumes: dict) -> None:
        """Fold one {(device, dst): bytes} view into the baselines.

        Iterates in sorted key order so the result is independent of
        the mapping's dict insertion order (the determinism the
        property tests assert).  Samples over the pair's current
        threshold are winsorized to it — an attack cannot calibrate
        itself in faster than the margin factor per fold.  The
        federation folds *merged* fleet-wide views through this same
        entry point.  Ceilings come from the previous fold's caches: a
        pair's entry is refreshed right after its one sample, the touched
        devices' and the global one after the loop.
        """
        pairs, devices, global_baseline = self._pairs, self._devices, self._global
        pair_cache, device_cache = self._pair_cache, self._device_cache
        threshold_of, alpha, p, inf = self._threshold_of, self.alpha, self.p, math.inf
        touched: dict[str, BaselineEstimator] = {}
        samples = clamped = 0
        self.folds += 1
        for key, volume in sorted(volumes.items()):
            if volume <= 0:
                continue
            device_id = key[0]
            ceiling = pair_cache.get(key, inf)
            if ceiling is inf:
                ceiling = device_cache.get(device_id, inf)
                if ceiling is inf:
                    ceiling = self._global_cache
            if volume > ceiling:
                volume = ceiling
                clamped += 1
            samples += 1
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = BaselineEstimator(alpha, p)
            pair.update(volume)
            pair_cache[key] = threshold_of(pair)
            device = devices.get(device_id)
            if device is None:
                device = devices[device_id] = BaselineEstimator(alpha, p)
            device.update(volume)
            touched[device_id] = device
            global_baseline.update(volume)
        for device_id, device in touched.items():
            device_cache[device_id] = threshold_of(device)
        self._global_cache = threshold_of(global_baseline)
        self.samples += samples
        self.clamped += clamped

    def _threshold_of(self, baseline: BaselineEstimator) -> float:
        if baseline.count < self.min_samples:
            return math.inf
        return max(
            self.floor,
            baseline.mean + self.k_sigma * baseline.std,
            self.margin * baseline.value(),
        )

    # -- queries -----------------------------------------------------------------------

    def threshold(self, device: str, dst: str) -> float:
        """The budget for one pair: most specific calibrated estimator."""
        value = self._pair_cache.get((device, dst), math.inf)
        if value is not math.inf:
            return value
        value = self._device_cache.get(device, math.inf)
        if value is not math.inf:
            return value
        return self._global_cache

    def snapshot(self) -> dict:
        """JSON-friendly calibration state (for reports and tests)."""
        return {
            "folds": self.folds,
            "samples": self.samples,
            "clamped": self.clamped,
            "pairs": len(self._pairs),
            "devices": len(self._devices),
            "global_threshold": self._global_cache,
        }


class OnlineExfiltrationDetector(Detector):
    """Exfiltration-volume detection against streaming baselines.

    Drop-in for :class:`~repro.telemetry.detectors
    .ExfiltrationVolumeDetector` with the static budget replaced by
    :class:`OnlineExfilBaselines`.  The pipeline drives calibration:
    ``fold_every``/:meth:`on_window` fold a window sample every N
    records (on every record, fast path or not), and
    :meth:`interesting` keeps the publish fast path alive with a
    two-probe cached-threshold compare.
    """

    guarded = True
    #: Records between baseline folds (the pipeline's window hook stride).
    fold_every = 256

    def __init__(
        self,
        baselines: OnlineExfilBaselines | None = None,
        fold_every: int | None = None,
        rearm_packets: int | None = None,
    ) -> None:
        super().__init__(rearm_packets)
        self.baselines = baselines if baselines is not None else OnlineExfilBaselines()
        if fold_every is not None:
            if fold_every < 1:
                raise ValueError("fold_every must be positive")
            self.fold_every = fold_every

    def on_window(self, aggregator) -> None:
        # Holdoff: while the sliding window is still filling, per-pair
        # volumes only ever grow — folding those ramp prefixes would
        # bias every baseline low and the first full windows would all
        # read as anomalies.  Learn (and judge) only from windows that
        # have turned over at least once.
        if aggregator.seq >= aggregator.window_packets:
            self.baselines.fold(aggregator)

    def interesting(self, record, window) -> bool:
        if record.verdict is Verdict.DROP or not record.src_ip:
            return False
        if window.seq < window.window_packets:
            return False
        return window.volumes.get((record.src_ip, record.dst_ip), 0) > self.baselines.threshold(
            record.src_ip, record.dst_ip
        )

    def observe(self, record, source, window) -> Alert | None:
        if record.verdict is Verdict.DROP or not record.src_ip:
            return None
        if window.seq < window.window_packets:
            return None
        volume = window.window_volume(record.src_ip, record.dst_ip)
        budget = self.baselines.threshold(record.src_ip, record.dst_ip)
        if volume <= budget:
            return None
        if not self._ready((record.src_ip, record.dst_ip), window.seq, source):
            return None
        return Alert(
            kind="exfil-volume",
            device=record.src_ip,
            app=record.package_name or record.app_id,
            dst_ip=record.dst_ip,
            source=source,
            seq=window.seq,
            packet_id=record.packet_id,
            detail=(
                f"{volume} bytes to one destination inside the window "
                f"(online baseline {budget:.0f})"
            ),
        )
