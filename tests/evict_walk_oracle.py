"""Oracle for ``PrefixCache.evict``: the full-sort walk it replaced.

Every node the index holds — resident and already spilled — goes into one
LRU-sorted snapshot per call; the walk skips the spilled ones one by one and
the disk-full "stuck" branch re-scans the same snapshot for the coldest
spilled leaf.  The production walk must pick the same victims in the same
order and leave the same counters.
"""

from repro.errors import CapacityError


def evict(cache, num_blocks=1):
    """``PrefixCache.evict`` as it was, acting on ``cache``'s own state."""
    freed = 0
    candidates = sorted(cache._nodes.values(), key=lambda n: n.last_used)
    progressed = True
    spill_full = False
    while freed < num_blocks and progressed:
        progressed = False
        for node in candidates:
            if freed >= num_blocks:
                break
            if node.key not in cache._nodes or node.spilled:
                continue
            if cache.allocator.refcount(node.block_id) != 1:
                continue  # an active request still holds the block
            if not spill_full:
                try:
                    cache._spill(node)
                except CapacityError:
                    spill_full = True  # disk tier full: hard-evict instead
                else:
                    freed += 1
                    progressed = True
                    continue
            if node.children or node.key in cache._restoring:
                continue  # must not orphan descendants / break a restore
            cache._remove(node)
            freed += 1
            cache.stats.evicted_blocks += 1
            progressed = True
        if not progressed:
            for node in candidates:
                if (
                    node.key in cache._nodes
                    and node.spilled
                    and node.children == 0
                    and node.key not in cache._restoring
                ):
                    cache._remove(node)
                    cache.stats.dropped_spilled_blocks += 1
                    spill_full = False
                    progressed = True
                    break
    return freed
