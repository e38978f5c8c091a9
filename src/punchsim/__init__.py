"""Deterministic discrete-event simulator for relay-assisted NAT
hole punching, plus the batch analysis pipeline for its measurements."""

from .kernel import RandomStream, Simulation, derive_seed
from .nat import FilteringBehavior, MappingBehavior, NatConfig, NatState, PortAllocation
from .net import Host, Network
from .relay import RelayClient, RelayService
from .transport import Transport
from .dcutr import DcutrConfig, HolePunch, HolePunchResult, OutcomeAttempt, OutcomeResult, PeerRuntime
from .strategies import BirthdayPlan, BirthdayScenario, birthday_probability, birthday_punch
from .campaign import (
    CampaignConfig,
    CampaignReport,
    PopulationSpec,
    TransportPolicy,
    aggregate,
    export_results,
    load_results,
    run_campaign,
)
from . import analysis, results

__all__ = [
    "RandomStream", "Simulation", "derive_seed",
    "FilteringBehavior", "MappingBehavior", "NatConfig", "NatState", "PortAllocation",
    "Host", "Network", "RelayClient", "RelayService", "Transport",
    "DcutrConfig", "HolePunch", "HolePunchResult", "OutcomeAttempt", "OutcomeResult",
    "PeerRuntime",
    "BirthdayPlan", "BirthdayScenario", "birthday_probability", "birthday_punch",
    "CampaignConfig", "CampaignReport", "PopulationSpec", "TransportPolicy",
    "aggregate", "export_results", "load_results", "run_campaign",
    "analysis", "results",
]
