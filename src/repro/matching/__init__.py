"""Distributed node-local point-to-point matching (first TBON layer)."""
from repro.matching.distributed_p2p import MatchEvent, NodeP2PMatcher

__all__ = ["MatchEvent", "NodeP2PMatcher"]
