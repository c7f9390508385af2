"""How a KV block is parked on a lower tier: as a private raw copy.

Every block that leaves the GPU pool — preemption swap-out, cold prefix-chain
spill, cross-worker migration — is parked through :class:`KVBlockCodec`,
which copies the tensor (so the pool may recycle the block) and hands the
very bytes back on restore.  Parking is exact, and every transfer is billed
at the tensor's modelled size (``ModelConfig.dtype_bytes`` per element): the
NumPy substrate keeps :data:`~repro.utils.DTYPE` values, but the links carry
the modelled width.
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
