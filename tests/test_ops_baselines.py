"""Streaming exfil baselines: estimator, hierarchy, pollution guard, bit-exact folds."""

import hashlib
import math
import random

from repro.ops.baselines import BaselineEstimator, OnlineExfilBaselines


def test_ewma_tracks_a_constant_stream_exactly():
    stat = BaselineEstimator(alpha=0.3)
    for _ in range(50):
        stat.update(1000.0)
    assert stat.mean == 1000.0
    assert stat.std == 0.0


def test_ewma_mean_converges_toward_a_level_shift():
    stat = BaselineEstimator(alpha=0.3)
    for _ in range(20):
        stat.update(100.0)
    for _ in range(40):
        stat.update(500.0)
    assert 480.0 < stat.mean <= 500.0


def test_p2_quantile_approximates_the_true_quantile():
    rng = random.Random(11)
    samples = [rng.uniform(0.0, 1000.0) for _ in range(5000)]
    estimator = BaselineEstimator(p=0.9)
    for sample in samples:
        estimator.update(sample)
    exact = sorted(samples)[int(0.9 * len(samples))]
    assert abs(estimator.value() - exact) / exact < 0.05


def test_p2_quantile_is_exact_below_six_samples():
    estimator = BaselineEstimator(p=0.5)
    for sample in (5.0, 1.0, 3.0):
        estimator.update(sample)
    assert estimator.value() == 3.0


class _LoopReference:
    """EWMA plus the textbook list-and-loop P², the flat estimator's reference.

    Records which (interpolation, marker, step) branches ran, so the
    comparison below can show it exercised every one of them.
    """

    def __init__(self, alpha, p, branches):
        self.alpha, self.p, self.branches = alpha, p, branches
        self.mean = self.var = 0.0
        self.count = 0
        self.q = []
        self.n = [1, 2, 3, 4, 5]
        self.desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self.dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def update(self, sample):
        self.count += 1
        if self.count == 1:
            self.mean = float(sample)
        else:
            delta = sample - self.mean
            increment = self.alpha * delta
            self.mean += increment
            self.var = (1.0 - self.alpha) * (self.var + delta * increment)
        q, n = self.q, self.n
        if self.count <= 5:
            q.append(float(sample))
            q.sort()
            return
        if sample < q[0]:
            q[0], cell = float(sample), 0
        elif sample >= q[4]:
            q[4], cell = float(sample), 3
        else:
            cell = 0
            while cell < 3 and sample >= q[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            n[index] += 1
        for index in range(5):
            self.desired[index] += self.dn[index]
        for i in (1, 2, 3):
            drift = self.desired[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1) or (drift <= -1.0 and n[i - 1] - n[i] < -1):
                step = 1 if drift > 0 else -1
                candidate = q[i] + step / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                kind = "parabolic"
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])
                    kind = "linear"
                self.branches.add((kind, i, step))
                q[i] = candidate
                n[i] += step

    def value(self):
        if self.count <= 5:
            rank = max(0, min(len(self.q) - 1, math.ceil(self.p * len(self.q)) - 1))
            return self.q[rank] if self.q else 0.0
        return self.q[2]


def _mixed_stream(rng):
    """Level shifts, ties, outliers and noise: every marker moves both ways."""
    level = rng.choice([10.0, 1000.0])
    for _ in range(rng.randint(50, 400)):
        roll = rng.random()
        if roll < 0.05:
            level = rng.choice([1.0, 10.0, 1000.0, 1e5])
        if roll < 0.3:
            yield rng.choice([level, level, 2 * level])
        elif roll < 0.35:
            yield rng.choice([0.0, 1e7, -5.0, 3])
        else:
            yield rng.gauss(level, level / 3)


def test_flat_estimator_matches_the_loop_reference_bit_for_bit():
    branches = set()
    for p in (0.1, 0.5, 0.9, 0.99):
        for seed in range(40):
            flat = BaselineEstimator(alpha=0.3, p=p)
            reference = _LoopReference(0.3, p, branches)
            for sample in _mixed_stream(random.Random(seed)):
                flat.update(sample)
                reference.update(sample)
                assert (flat.count, flat.mean, flat.var) == (
                    reference.count, reference.mean, reference.var
                )
                assert repr(flat.value()) == repr(reference.value())
    assert branches == {
        (kind, marker, step)
        for kind in ("parabolic", "linear")
        for marker in (1, 2, 3)
        for step in (1, -1)
    }


def test_threshold_is_infinite_until_min_samples():
    baselines = OnlineExfilBaselines(min_samples=3)
    for _ in range(2):
        baselines.fold_volumes({("dev", "dst"): 1000})
    assert baselines.threshold("dev", "dst") == math.inf
    baselines.fold_volumes({("dev", "dst"): 1000})
    assert baselines.threshold("dev", "dst") < math.inf


def test_threshold_falls_back_pair_to_device_to_global():
    baselines = OnlineExfilBaselines(min_samples=2, floor=0.0)
    # Two folds calibrate ("dev", "a") and the device; one fold of the
    # second pair leaves it below min_samples.
    baselines.fold_volumes({("dev", "a"): 1000})
    baselines.fold_volumes({("dev", "a"): 1000, ("dev", "b"): 2000})
    pair_threshold = baselines.threshold("dev", "a")
    assert pair_threshold < math.inf
    # ("dev", "b") has one sample: falls back to the device estimator.
    device_threshold = baselines.threshold("dev", "b")
    assert device_threshold < math.inf
    assert device_threshold != math.inf
    # An unseen device falls back to the global estimator.
    assert baselines.threshold("ghost", "x") < math.inf


def test_floor_dominates_small_volume_thresholds():
    baselines = OnlineExfilBaselines(min_samples=2, floor=12288.0)
    for _ in range(10):
        baselines.fold_volumes({("dev", "dst"): 100})
    assert baselines.threshold("dev", "dst") == 12288.0


def test_winsorization_clamps_over_threshold_samples():
    baselines = OnlineExfilBaselines(min_samples=2, floor=0.0, margin=2.0)
    for _ in range(10):
        baselines.fold_volumes({("dev", "dst"): 1000})
    calibrated = baselines.threshold("dev", "dst")
    assert baselines.clamped == 0
    # A sudden 100x spike folds as the threshold value, not its own.
    baselines.fold_volumes({("dev", "dst"): 100_000})
    assert baselines.clamped == 1
    after = baselines.threshold("dev", "dst")
    # The guard bounds how far one polluted fold can drag the model: the
    # clamped sample moves the mean/variance by at most the old
    # threshold, nowhere near the raw spike.
    assert after < 4 * calibrated
    assert after < 100_000


def test_attacker_cannot_ramp_the_threshold_past_the_margin_rate():
    baselines = OnlineExfilBaselines(min_samples=2, floor=0.0)
    for _ in range(10):
        baselines.fold_volumes({("dev", "dst"): 1000})
    previous = baselines.threshold("dev", "dst")
    for _ in range(5):
        spike = previous * 100
        baselines.fold_volumes({("dev", "dst"): spike})
        current = baselines.threshold("dev", "dst")
        # Growth per fold is a small bounded factor — the threshold
        # chases the clamped value geometrically, never jumping to the
        # spike the attacker actually sent.
        assert current < 4 * previous
        assert current < spike
        previous = current


def test_fold_order_independence():
    volumes = {(f"dev{i}", "dst"): 1000 + 137 * i for i in range(20)}
    shuffled_keys = list(volumes)
    random.Random(3).shuffle(shuffled_keys)
    shuffled = {key: volumes[key] for key in shuffled_keys}
    a, b = OnlineExfilBaselines(min_samples=1), OnlineExfilBaselines(min_samples=1)
    for _ in range(4):
        a.fold_volumes(volumes)
        b.fold_volumes(shuffled)
    for key in volumes:
        assert a.threshold(*key) == b.threshold(*key)
    assert a.snapshot() == b.snapshot()


# -- golden fold stream ----------------------------------------------------------------

_GOLDEN_DEVICES = [f"10.0.0.{i}" for i in range(1, 5)]
_GOLDEN_DSTS = [f"203.0.113.{i}" for i in range(1, 7)]


def _golden_fold_stream():
    """80 seeded folds: zero volumes, spikes, and pairs joining mid-stream."""
    rng = random.Random(20)
    active = [
        (_GOLDEN_DEVICES[0], _GOLDEN_DSTS[0]),
        (_GOLDEN_DEVICES[0], _GOLDEN_DSTS[1]),
        (_GOLDEN_DEVICES[1], _GOLDEN_DSTS[0]),
    ]
    for index in range(80):
        if index in (10, 25, 40, 55):
            active.append((_GOLDEN_DEVICES[index // 15], _GOLDEN_DSTS[2 + index // 15]))
        if index == 77:
            # Joins too late to reach min_samples: falls back to its device.
            active.append((_GOLDEN_DEVICES[2], _GOLDEN_DSTS[5]))
        volumes = {}
        for pair in active:
            roll = rng.random()
            if roll < 0.1:
                volumes[pair] = 0
            elif roll < 0.15:
                volumes[pair] = rng.randint(200_000, 2_000_000)
            else:
                volumes[pair] = rng.randint(4_000, 40_000)
        yield volumes


def test_golden_fold_stream_is_bit_exact():
    """Thresholds and snapshots of a fixed fold stream, to the last bit.

    The constants were captured from the two-estimator (EWMA + P²)
    implementation this flat estimator replaced; any change to the float
    operations or their order shows up here.
    """
    baselines = OnlineExfilBaselines(min_samples=4)
    probes = [(device, dst) for device in _GOLDEN_DEVICES + ["10.9.9.9"] for dst in _GOLDEN_DSTS]
    digest = hashlib.sha256()
    snapshots = {}
    for volumes in _golden_fold_stream():
        baselines.fold_volumes(volumes)
        if baselines.folds == 1:
            assert baselines.threshold("10.9.9.9", "x") == math.inf
        if baselines.folds == 2:
            assert baselines.threshold("10.9.9.9", "x") < math.inf
        digest.update(repr([baselines.threshold(*probe) for probe in probes]).encode())
        digest.update(repr(sorted(baselines.snapshot().items())).encode())
        if baselines.folds in (20, 60, 80):
            snapshots[baselines.folds] = baselines.snapshot()

    assert snapshots == {
        20: {"folds": 20, "samples": 63, "clamped": 3, "pairs": 4, "devices": 2,
             "global_threshold": 852760.7992180175},
        60: {"folds": 60, "samples": 254, "clamped": 9, "pairs": 7, "devices": 4,
             "global_threshold": 1307936.2604069258},
        80: {"folds": 80, "samples": 385, "clamped": 14, "pairs": 8, "devices": 4,
             "global_threshold": 1307936.2604069258},
    }
    assert {probe: baselines.threshold(*probe) for probe in [
        ("10.0.0.1", "203.0.113.1"),
        ("10.0.0.1", "203.0.113.2"),
        ("10.0.0.1", "203.0.113.3"),
        ("10.0.0.2", "203.0.113.4"),
        ("10.0.0.1", "203.0.113.6"),
        ("10.0.0.3", "203.0.113.6"),
        ("10.0.0.4", "203.0.113.6"),
        ("10.9.9.9", "203.0.113.1"),
    ]} == {
        # Calibrated pairs, two of them joining mid-stream.
        ("10.0.0.1", "203.0.113.1"): 255867.83845286263,
        ("10.0.0.1", "203.0.113.2"): 142436.08917890003,
        ("10.0.0.1", "203.0.113.3"): 1057414.425608709,
        ("10.0.0.2", "203.0.113.4"): 785434.0139207703,
        # Unseen destination and under-sampled late pair: device fallback.
        ("10.0.0.1", "203.0.113.6"): 1022876.8996515686,
        ("10.0.0.3", "203.0.113.6"): 271511.7566535742,
        ("10.0.0.4", "203.0.113.6"): 90009.20385811417,
        # Unseen device: the global estimator.
        ("10.9.9.9", "203.0.113.1"): 1307936.2604069258,
    }
    # Every probe's threshold after every fold.
    assert digest.hexdigest() == (
        "b715f33f9a0ec2440bd3f110cedad9b0307f75ee94a5a160c7495832d352ef38"
    )
