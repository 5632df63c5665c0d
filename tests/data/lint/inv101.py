# lint-relpath: repro/cluster/flow_inv101.py
"""Golden fixture: INV101 ledger pokes outside the owning mutators."""


class MiniCluster:
    def __init__(self):
        self.lent_mb = [0, 0]

    def _notify_demand(self, lenders):
        pass

    def lend(self, node, mb):
        self.lent_mb[node] += mb
        self._notify_demand([node])

    def check_invariants(self):
        pass


def poke(cluster: MiniCluster, node, mb):
    cluster.lent_mb[node] -= mb  # EXPECT: INV101


def suppressed_poke(cluster: MiniCluster, node, mb):
    cluster.lent_mb[node] -= mb  # repro: noqa[INV101]


def through_mutator_is_clean(cluster: MiniCluster, node, mb):
    cluster.lend(node, mb)
