"""Production greedy consolidation vs the string-keyed oracle on random
instances: scale factor, best-effort scaling, a fixed aggregation-policy
subnet and failed-device exclusions all drawn together."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consolidation import GreedyConsolidator, validate_exclusions
from repro.errors import InfeasibleError
from repro.topology import aggregation_policy
from tests.oracles.network import ReferenceGreedyConsolidator
from tests.test_consolidation_properties import FT, traffic_instances
from tests.test_netfast_equivalence import routing_digest

#: Devices whose failure validate_exclusions accepts: every switch and
#: link except a host's edge switch and access link.
_ATTACHMENTS = {FT.attachment_switch(h) for h in FT.hosts}
EXCLUDABLE_SWITCHES = sorted(set(FT.switches) - _ATTACHMENTS)
EXCLUDABLE_LINKS = sorted(l for l in FT.links if not (FT.is_host(l[0]) or FT.is_host(l[1])))


def _outcome(consolidator, traffic, k, best_effort, excluded):
    """Digest of a successful solve, or the infeasibility message."""
    switches, links = excluded
    try:
        res = consolidator.consolidate(
            traffic, k, best_effort_scale=best_effort,
            excluded_switches=switches, excluded_links=links,
        )
    except InfeasibleError as err:
        return ("infeasible", str(err))
    return ("ok", routing_digest(res))


@given(
    traffic=traffic_instances(),
    k=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]),
    best_effort=st.booleans(),
    level=st.none() | st.integers(0, 3),
    switches=st.lists(st.sampled_from(EXCLUDABLE_SWITCHES), max_size=3, unique=True),
    links=st.lists(st.sampled_from(EXCLUDABLE_LINKS), max_size=4, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_production_matches_oracle(traffic, k, best_effort, level, switches, links):
    subnet = None if level is None else aggregation_policy(FT, level)
    excluded = validate_exclusions(FT, switches, links)
    production = GreedyConsolidator(FT, allowed_subnet=subnet)
    oracle = ReferenceGreedyConsolidator(FT, allowed_subnet=subnet)
    # A second solve on the same instances without exclusions: the
    # per-call exclusion masks must not leak into the cached pair state.
    for excl in (excluded, (frozenset(), frozenset())):
        got = _outcome(production, traffic, k, best_effort, excl)
        want = _outcome(oracle, traffic, k, best_effort, excl)
        assert got == want, (level, excl)

