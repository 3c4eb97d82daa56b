"""orchsim: a desk-scale federated-cloud control plane with a deterministic simulator.

The package models the full path from deployment template to running
instances: template parsing and topology validation, preference-aware
weighted provider ranking, per-site fair-share scheduling with preemptible
instances, cluster elasticity with batch/cloud role partitioning, token-based
authorization, and a discrete-event simulator that replays scenarios
bit-identically.
"""

from .config import EngineConfig, load_config, parse_config
from .elasticity import Action, ElasticityManager, ElasticPolicy, NodePool, NodeRecord
from .errors import DomainError
from .iam import IamService, TokenRecord
from .orchestrator import (DataCatalog, DataCatalogEntry, DeploymentRecord,
                           Orchestrator, SLARecord)
from .ranker import (PreferenceList, ProviderSnapshot, RankerConfig, normalize,
                     rank_providers, score)
from .report import RunReport, derive_metrics, verify_report, write_report
from .resources import ResourceVector
from .scheduler import (Decision, InstanceRequest, RunningInstance, SiteScheduler,
                        UsageLedger)
from .scenario import Scenario, load_scenario, parse_scenario
from .simulation import World, run_scenario
from .site import Site, make_site
from .templates import (DeploymentTemplate, NodeSpec, ValidationReport,
                        aggregate_demand, parse_template, serialize_template,
                        topological_order, validate)

__version__ = "0.1.0"

__all__ = [
    "Action", "DataCatalog", "DataCatalogEntry", "Decision", "DeploymentRecord",
    "DeploymentTemplate", "DomainError", "ElasticPolicy", "ElasticityManager",
    "EngineConfig", "IamService", "InstanceRequest", "NodePool", "NodeRecord",
    "NodeSpec", "Orchestrator", "PreferenceList",
    "ProviderSnapshot", "RankerConfig", "ResourceVector", "RunReport",
    "RunningInstance", "SLARecord", "Scenario", "Site", "SiteScheduler",
    "TokenRecord", "UsageLedger", "ValidationReport",
    "World", "aggregate_demand", "derive_metrics", "load_config", "load_scenario",
    "make_site", "normalize", "parse_config", "parse_scenario", "parse_template",
    "rank_providers", "run_scenario", "score", "serialize_template",
    "topological_order", "validate", "verify_report", "write_report",
]
