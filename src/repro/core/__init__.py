"""Core PQCache algorithms: K-Means, Product Quantization, the PQCache
manager, the adaptive clustering planner, and the GPU block cache."""

from .adaptive import AdaptiveIterationPlanner, ClusteringProfile, ComputeProfile
from .gpu_cache import BlockGpuCache, CacheStats
from .kmeans import KMeansResult, kmeans_assign, kmeans_fit, kmeans_plus_plus_init
from .pq import PQConfig, ProductQuantizer
from .pqcache import PQCacheConfig, PQCacheManager

__all__ = [
    "AdaptiveIterationPlanner",
    "ClusteringProfile",
    "ComputeProfile",
    "BlockGpuCache",
    "CacheStats",
    "KMeansResult",
    "kmeans_assign",
    "kmeans_fit",
    "kmeans_plus_plus_init",
    "PQConfig",
    "ProductQuantizer",
    "PQCacheConfig",
    "PQCacheManager",
]
