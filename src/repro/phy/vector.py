"""Vectorized channel-state kernels for the fast medium backend.

The exact reception path (:mod:`repro.sim.medium`) advances one
Ornstein–Uhlenbeck state and replays one Gilbert dwell sequence per
candidate per transmission, in pure Python.  The fast backend
(:mod:`repro.sim.medium_fast`) keeps the same per-pair state but as
structure-of-arrays numpy batches, and this module holds the array
kernels that advance them:

* :func:`ou_advance` — the exact path's OU recurrence
  ``x' = x·e^(−dt/τ) + N(0, σ·sqrt(1 − e^(−2dt/τ)))`` applied to a whole
  slot array at once, honoring the same freeze threshold for
  sub-millisecond queries.
* :func:`gilbert_advance` — the two-state good/deep-fade process advanced
  by sampling the *analytic* continuous-time Markov transition probability
  instead of replaying exponential dwells.  Conditioning each query on the
  previous state keeps the joint law of the sampled trajectory identical
  to dwell replay (the process is Markov), so the fast path is
  distribution-equivalent, not merely marginally equivalent.
* :func:`prr_table` — the SNR→PRR curve sampled on the exact path's
  0.01 dB quantization grid, so a vectorized ``table[idx]`` gather returns
  byte-identical PRR values to ``repro.phy.modulation.prr_fast``.
* :func:`mean_field_extra_db` — the Jensen correction for treating a
  fading interferer as a constant mean-gain source (see DESIGN.md §9).

Randomness: every kernel takes the draws it needs as explicit arguments
or a ``numpy.random.Generator``; nothing here touches global numpy RNG
state (lint rule D001 enforces this for the whole deterministic stack).
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

from repro.phy.modulation import _prr_quantized

#: The exact path short-circuits PRR outside the transition region; the
#: table covers exactly the quantized interior, [−8.00 dB, +25.00 dB].
PRR_TABLE_SNR_MIN_CENTI = -800
PRR_TABLE_SNR_MAX_CENTI = 2500

_LN10_OVER_10 = math.log(10.0) / 10.0


def ou_advance(
    x: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    tau_s: float,
    sigma_db: float,
    freeze_s: float,
    gen: Any,
) -> Any:
    """Advance the OU slots listed in ``slots`` to ``t_now``, in place.

    ``x`` / ``t_last`` are the global per-pair state arrays; ``slots`` an
    integer array of slot indices (each at most once).  Queries closer than
    ``freeze_s`` to the previous one see a frozen channel, matching the
    exact path's ``_ou_freeze_s`` behavior.  Returns the post-advance
    ``x[slots]`` values.
    """
    dt = t_now - t_last[slots]
    moving = dt > freeze_s
    if moving.any():
        upd = slots[moving]
        decay = np.exp(-dt[moving] / tau_s)
        innovation = sigma_db * np.sqrt(np.maximum(0.0, 1.0 - decay * decay))
        x[upd] = x[upd] * decay + innovation * gen.standard_normal(upd.size)
        t_last[upd] = t_now
    return x[slots]


def gilbert_advance(
    faded: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    fade_dwell_s: float,
    good_dwell_s: float,
    gen: Any,
) -> Any:
    """Advance the bimodal (Gilbert) slots in ``slots`` to ``t_now``, in place.

    With good→fade rate ``a = 1/good_dwell`` and fade→good rate
    ``b = 1/fade_dwell``, the state at ``t+dt`` given the state at ``t`` is
    Bernoulli with

        P(faded) = π_f + (1{faded now} − π_f)·e^(−(a+b)·dt),
        π_f = fade_dwell / (fade_dwell + good_dwell)

    — the closed-form CTMC transition the exact path's dwell replay
    simulates.  Returns the post-advance ``faded[slots]`` booleans.
    """
    a = 1.0 / good_dwell_s
    b = 1.0 / fade_dwell_s
    pi_faded = fade_dwell_s / (fade_dwell_s + good_dwell_s)
    dt = t_now - t_last[slots]
    decay = np.exp(-(a + b) * dt)
    was_faded = faded[slots].astype(np.float64)
    p_faded = pi_faded + (was_faded - pi_faded) * decay
    now_faded = gen.random(slots.size) < p_faded
    faded[slots] = now_faded
    t_last[slots] = t_now
    return now_faded


def prr_table(modulation: str, length_bytes: int) -> Any:
    """PRR over the quantized SNR grid for one (modulation, frame length).

    Index ``i`` holds the PRR at ``(PRR_TABLE_SNR_MIN_CENTI + i) / 100``
    dB, computed through the exact path's ``_prr_quantized`` so the two
    backends return bit-identical PRR for any in-range SNR.  Callers cache
    the returned array (≈26 KiB) per (modulation, length).
    """
    centi = range(PRR_TABLE_SNR_MIN_CENTI, PRR_TABLE_SNR_MAX_CENTI + 1)
    return np.fromiter(
        (_prr_quantized(modulation, q, length_bytes) for q in centi),
        dtype=np.float64,
        count=PRR_TABLE_SNR_MAX_CENTI - PRR_TABLE_SNR_MIN_CENTI + 1,
    )


def prr_lookup(table: Any, sinr_db: Any) -> Any:
    """Vectorized ``prr_fast``: short-circuits plus a quantized gather.

    ``np.rint`` rounds half-to-even exactly like the exact path's builtin
    ``round``, so the gather index matches scalar quantization.  The index
    clamp is ``np.maximum``/``np.minimum`` rather than ``np.clip``: the
    same result, at a fraction of ``np.clip``'s per-call overhead on the
    few-element arrays one transmission produces.
    """
    idx = np.rint(sinr_db * 100.0).astype(np.int64) - PRR_TABLE_SNR_MIN_CENTI
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, table.size - 1, out=idx)
    prr = table[idx]
    prr = np.where(sinr_db >= 25.0, 1.0, prr)
    return np.where(sinr_db <= -8.0, 0.0, prr)


def mean_field_extra_db(
    temporal_sigma_db: float,
    bimodal_fraction: float,
    fade_depth_db: float,
    fade_dwell_s: float,
    good_dwell_s: float,
) -> Tuple[float, float]:
    """dB corrections for treating a fading link as its mean gain.

    Interference in the fast path uses the interferer→receiver *mean* gain
    instead of advancing that pair's OU/Gilbert state (the exact path's
    per-interferer state advance is the O(N²) term).  Dropping a zero-mean
    dB process understates the *linear-scale* mean power (Jensen), so the
    constant corrections below restore it:

    * OU:  E[10^(X/10)] for X ~ N(0, σ) is ``exp((σ·ln10/10)²/2)``,
      i.e. ``σ²·ln10/20`` dB (≈0.26 dB at σ = 1.5).
    * Gilbert:  a bimodal pair spends π_f of its time ``fade_depth``
      lower, so its mean linear gain factor is
      ``(1 − π_f) + π_f·10^(−depth/10)``.

    Returns ``(ou_extra_db, bimodal_extra_db)``; the second applies only
    to pairs resolved as bimodal (non-bimodal pairs get 0).
    """
    ou_extra = temporal_sigma_db * temporal_sigma_db * math.log(10.0) / 20.0
    if bimodal_fraction > 0.0:
        pi_faded = fade_dwell_s / (fade_dwell_s + good_dwell_s)
        factor = (1.0 - pi_faded) + pi_faded * 10.0 ** (-fade_depth_db / 10.0)
        bimodal_extra = 10.0 * math.log10(factor)
    else:
        bimodal_extra = 0.0
    return ou_extra, bimodal_extra


def dbm_to_mw(dbm: Any) -> Any:
    """Vectorized dBm→mW (``10^(x/10)`` via ``exp`` — −inf maps to 0)."""
    return np.exp(np.asarray(dbm, dtype=np.float64) * _LN10_OVER_10)


__all__ = [
    "ou_advance",
    "gilbert_advance",
    "prr_table",
    "prr_lookup",
    "mean_field_extra_db",
    "dbm_to_mw",
    "PRR_TABLE_SNR_MIN_CENTI",
    "PRR_TABLE_SNR_MAX_CENTI",
]
