"""Public API surface tests: everything README documents is importable."""

import importlib
import inspect

import pytest


PUBLIC_API = {
    "repro": [
        "API_VERSION",
        "Scenario",
        "ScenarioResult",
        "ScenarioSpec",
        "Observability",
        "ReputationService",
        "RatingEvent",
        "InteractionEvent",
        "ChurnEvent",
        "WatermarkEvent",
        "QueryRequest",
        "QueryResult",
        "build_scenario",
        "run_scenario",
        "list_experiments",
        "run_experiment",
    ],
    "repro.api": [
        "API_VERSION",
        "Scenario",
        "ScenarioResult",
        "ScenarioSpec",
        "SystemKind",
        "CollusionKind",
        "RatingEvent",
        "InteractionEvent",
        "ChurnEvent",
        "WatermarkEvent",
        "QueryRequest",
        "QueryResult",
        "ReputationService",
        "build_scenario",
        "run_scenario",
        "list_experiments",
        "run_experiment",
    ],
    "repro.serve": [
        "EVENT_SCHEMA_VERSION",
        "RatingEvent",
        "InteractionEvent",
        "ChurnEvent",
        "WatermarkEvent",
        "QueryRequest",
        "QueryResult",
        "EventDecodeError",
        "encode_event",
        "decode_event",
        "write_event_stream",
        "read_event_stream",
        "RecordedStream",
        "record_scenario_events",
        "ReplayReport",
        "compare_histories",
        "replay_events",
        "replay_recorded",
        "replay_report",
        "ReputationService",
        "ServiceError",
    ],
    "repro.utils": [
        "RngStream",
        "spawn_rng",
        "check_probability",
    ],
    "repro.social": [
        "SocialGraph",
        "AssignedSocialNetwork",
        "Relationship",
        "SocialView",
        "InteractionLedger",
        "InterestProfiles",
        "SocialNetworkBuilder",
        "GraphSummary",
        "summarize_graph",
        "bfs_distances",
        "common_friends",
    ],
    "repro.reputation": [
        "Rating",
        "IntervalRatings",
        "ReputationSystem",
        "RatingLedger",
        "EigenTrust",
        "EBayModel",
        "PowerTrust",
        "GossipTrust",
        "SimilarityWeightedModel",
    ],
    "repro.p2p": [
        "Population",
        "NodeSpec",
        "NodeKind",
        "InterestOverlay",
        "Simulation",
        "SimulationConfig",
        "SelectionPolicy",
        "select_server",
        "MetricsCollector",
        "ChordRing",
        "BatchedQueryEngine",
        "EngineMode",
    ],
    "repro.collusion": [
        "CollusionSchedule",
        "RatingBurst",
        "NoCollusion",
        "PairwiseCollusion",
        "MultiNodeCollusion",
        "MutualMultiNodeCollusion",
        "BadmouthingCollusion",
        "CompositeCollusion",
        "CompromisedPretrustedCollusion",
        "falsify_identical_interests",
        "falsify_single_relationship",
    ],
    "repro.core": [
        "SocialTrust",
        "SocialTrustConfig",
        "GaussianCenter",
        "ClosenessComputer",
        "SimilarityComputer",
        "CollusionDetector",
        "Finding",
        "SuspicionReason",
        "RaterBand",
        "gaussian_weight",
        "combined_weight",
        "overlap_similarity",
        "DistributedSocialTrust",
        "ResourceManager",
    ],
    "repro.trace": [
        "Trace",
        "TraceUser",
        "Transaction",
        "MarketplaceConfig",
        "generate_trace",
        "bfs_crawl",
        "save_trace",
        "load_trace",
        "business_network_vs_reputation",
        "personal_network_vs_reputation",
        "transactions_vs_reputation",
        "rating_stats_by_distance",
        "category_rank_distribution",
        "interest_similarity_cdf",
    ],
    "repro.analysis": [
        "paper_correlation",
        "pearson_correlation",
        "ecdf",
        "percentile_summary",
        "hill_tail_exponent",
        "sparkline",
        "bar_chart",
        "distribution_panel",
    ],
    "repro.experiments": [
        "WorldConfig",
        "SystemKind",
        "CollusionKind",
        "build_world",
        "ExperimentResult",
        "average_runs",
        "get_experiment",
        "list_experiments",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_matches_exports(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} has no __all__"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_every_public_item_has_docstring():
    for module_name, names in PUBLIC_API.items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(module, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


@pytest.mark.parametrize("module_name", ["repro", "repro.api", "repro.serve"])
def test_all_audit_importable_and_documented(module_name):
    """Every ``__all__`` export resolves (including lazy ``__getattr__``
    names) and every class/function among them carries a docstring."""
    module = importlib.import_module(module_name)
    for name in module.__all__:
        obj = getattr(module, name)  # raises AttributeError if broken
        # typing aliases (e.g. the Event union) are callable but carry
        # no docstring of their own; audit real classes and functions.
        if isinstance(obj, type) or inspect.isroutine(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def test_api_version_is_3():
    import repro

    assert repro.API_VERSION == "3.0"
