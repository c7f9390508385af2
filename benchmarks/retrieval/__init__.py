"""Stand-alone ANN retrieval library: flat, IVF and PQ indexes plus metrics."""

from .flat import FlatIndex
from .ivf import IVFIndex
from .metrics import recall_at_k, score_distortion
from .pq_index import PQIndex

__all__ = ["FlatIndex", "IVFIndex", "PQIndex", "recall_at_k", "score_distortion"]
