"""Routing strategies and the Lemma-13 cost model.

Lemma 13 (paper): in a complete network of ``k`` machines, if each machine
is source (or destination) of ``O(x)`` messages whose destinations
(sources) are i.u.r., then all messages can be routed in
``O((x log x)/k)`` rounds whp, using the direct link of each
(source, destination) pair.

:func:`direct_exchange` implements exactly that schedule.
:func:`valiant_exchange` implements two-hop Valiant routing (send to a
uniformly random intermediate machine first), which equalizes link loads
even when the (source, destination) pattern is adversarial — the classical
trick referenced by the paper's "randomized proxy computation".
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import as_rng
from repro.errors import ModelError
from repro.kmachine.metrics import unit_load_matrix
from repro.kmachine.network import LinkNetwork

__all__ = [
    "direct_exchange",
    "valiant_exchange",
    "lemma13_round_bound",
]


def direct_exchange(
    network: LinkNetwork, src, dst, bits, label: str = "direct"
) -> int:
    """One phase: message ``t`` (``bits[t]`` bits) uses the direct ``src[t] → dst[t]`` link.

    Charges the phase's link loads to ``network`` and returns its rounds;
    messages with ``src[t] == dst[t]`` are local (free).
    """
    k = network.k
    src, dst, bits = (np.asarray(a, dtype=np.int64) for a in (src, dst, bits))
    if not (src.shape == dst.shape == bits.shape and src.ndim == 1):
        raise ModelError(f"src/dst/bits must be 1-D of one length, got "
                         f"{src.shape}/{dst.shape}/{bits.shape}")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= k):
        raise ModelError(f"machine index out of range [0, {k})")
    if src.size and bits.min() <= 0:
        raise ModelError("message sizes must be positive")
    msgs, local = unit_load_matrix(src, dst, k)
    loads = np.zeros((k, k), dtype=np.int64)
    remote = src != dst
    np.add.at(loads, (src[remote], dst[remote]), bits[remote])
    return network.account_phase(loads, msgs, label=label, local_messages=local)


def valiant_exchange(
    network: LinkNetwork,
    src,
    dst,
    bits,
    rng: int | np.random.Generator | None = None,
    label: str = "valiant",
) -> int:
    """Two-hop random routing: src → random intermediate → dst; returns the rounds.

    Costs two phases.  The intermediate machine forwards each message
    unchanged; message sizes are preserved (a real implementation would add
    ``O(log k)`` header bits, which is within the model's polylog slack).
    """
    mid = as_rng(rng).integers(0, network.k, size=len(src))
    return (direct_exchange(network, src, mid, bits, label=f"{label}/hop1")
            + direct_exchange(network, mid, dst, bits, label=f"{label}/hop2"))


def lemma13_round_bound(x: int, k: int, message_bits: int, bandwidth: int) -> float:
    """The Lemma-13 upper bound ``O((x log x)/k)`` in concrete rounds.

    With ``x`` messages of ``message_bits`` bits per machine and random
    destinations, the expected per-link load is ``x/k`` messages; the
    ``log x`` factor covers the whp deviation.  Returns
    ``(x * max(1, ln x) / k) * message_bits / bandwidth`` — a concrete
    envelope against which measured rounds are compared in the benches.
    """
    if x <= 0:
        return 0.0
    return (x * max(1.0, math.log(x)) / k) * message_bits / bandwidth
