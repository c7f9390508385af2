"""A raw per-tensor parking codec, defined but no longer called.

Parked KV is rows of :class:`~repro.llm.kvcache.SwapSpace`'s host store.
This module stays only because ``bench/adapters.py`` names
:meth:`KVBlockCodec.encode` / :meth:`KVBlockCodec.decode` as trace targets
(their ``llm.kvcodec.*`` spans now read zero calls); it goes once the
benchmark stops naming it.  :class:`KVBlockCodec` copies a tensor and hands
the very bytes back, sized at ``dtype_bytes`` per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = ["EncodedKV", "KVBlockCodec"]


@dataclass(eq=False)
class EncodedKV:
    """One tensor of one KV block in its parked form.

    Attributes:
        logical_nbytes: modelled size of the tensor — what a transfer moves.
        payload: the parked copy.
        decoder: the codec that hands the copy back.
    """

    logical_nbytes: int
    payload: np.ndarray = field(repr=False)
    decoder: "KVBlockCodec" = field(repr=False)

    @property
    def wire_nbytes(self) -> int:
        """Bytes on the wire: the modelled size, since parking is raw."""
        return self.logical_nbytes

    def decode(self) -> np.ndarray:
        """Restore the parked tensor bit for bit."""
        return self.decoder.decode(self)


class KVBlockCodec:
    """Parks a KV tensor as a copy sized at ``dtype_bytes`` per element."""

    def __init__(self, dtype_bytes: int = 2) -> None:
        if dtype_bytes not in (1, 2, 4, 8):
            raise ConfigurationError("dtype_bytes must be one of 1, 2, 4, 8")
        self.dtype_bytes = dtype_bytes

    def encode(self, array: np.ndarray) -> EncodedKV:
        array = np.asarray(array)
        return EncodedKV(
            logical_nbytes=int(array.size) * self.dtype_bytes,
            payload=array.copy(), decoder=self,
        )

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        return encoded.payload
