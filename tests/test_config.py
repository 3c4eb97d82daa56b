import os

import pytest

from orchsim import config as config_mod
from orchsim.config import (ConfigError, config_from_env, load_config,
                            parse_config, resolve_preferences)
from orchsim.ranker import PreferenceList
from orchsim.resources import ResourceVector

FULL = """\
# engine configuration
w_sla = 2.0
w_avail = 1.0
w_lat = 0.5
w_data = 3.0

prefs.ada = [site-b, site-a]
prefs.research = [site-c]

half_life_s = 1800
backfill = false
quota.research = { cpus: 8, mem_mb: 16384, disk_gb: 200 }

t_idle_s = 60
boot_delay_s = 10
min_nodes = 1
max_nodes = 4
"""


def test_parse_full_config():
    config = parse_config(FULL)
    assert config.ranker.w_sla == 2.0
    assert config.ranker.w_data == 3.0
    assert config.preferences["ada"] == PreferenceList(("site-b", "site-a"))
    assert config.preferences["research"] == PreferenceList(("site-c",))
    quoted = parse_config('prefs.ada = [a, "b c"]\n').preferences["ada"]
    assert quoted == PreferenceList(("a", "b c"))
    assert config.half_life_s == 1800
    assert config.backfill is False
    assert config.quotas == {"research": ResourceVector(8, 16384, 200)}
    assert config.elasticity.t_idle_s == 60
    assert config.elasticity.boot_delay_s == 10
    assert config.elasticity.min_nodes == 1
    assert config.elasticity.max_nodes == 4


def test_defaults_when_empty():
    config = parse_config("")
    assert config.ranker.w_sla == 1.0
    assert config.backfill is True
    assert config.half_life_s == 3600.0
    assert config.quotas == {}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("w_price = 3.0\n")
    with pytest.raises(ConfigError, match="line 1: unknown key 'policy_file'"):
        parse_config("policy_file = permits.txt\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config("w_sla\n")
    with pytest.raises(ConfigError):
        parse_config("backfill = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("t_idle_s = soon\n")
    # Bad numbers and rules of the built objects name their line; a rule
    # across keys names the line of the key that breaks it.
    for text, message in [
        ("w_avail = 2\nw_sla = abc\n", "line 2: w_sla must be a number"),
        ("half_life_s = abc\n", "line 1: half_life_s must be a positive number"),
        ("\nhalf_life_s = 0\n", "line 2: half_life_s must be a positive number"),
        ("weights.ada = 2.0\n", "line 1: unknown key 'weights.ada'"),
        # values follow stext's scalar and inline-list syntax
        ("w_sla = 1_0\n", "line 1: w_sla must be a number"),
        ("half_life_s = 1e3\n", "line 1: half_life_s must be a positive number"),
        ("prefs.ada = [a,, b]\n", "line 1: empty item in inline container"),
        ("w_sla = 2\nw_sla = 3\n", "line 2: duplicate key 'w_sla'"),
        # a quota is a resource triple, as a template's resources are
        ("quota.g = 8,16384,200\n", "line 1: quota.g must be a block"),
        ("quota.g = { cpus: 8, mem_mb: 16384 }\n", "line 1: quota.g is missing 'disk_gb'"),
        ("quota.g = { cpus: 1_0, mem_mb: 2, disk_gb: 3 }\n",
         "line 1: quota.g cpus must be a non-negative integer"),
        ("w_sla = -1\n", "line 1: weights must be >= 0"),
        ("w_sla = 0\nw_avail = 0\nw_lat = 0\nw_data = 0\n",
         "line 4: at least one weight must be positive"),
        ("prefs.ada = [a, b, a]\n", "line 1: preference list contains duplicates"),
        ("min_nodes = 3\nt_idle_s = 5\nmax_nodes = 2\n",
         "line 3: min_nodes must be <= max_nodes"),
        ("boot_delay_s = -1\n", "line 1: timings must be >= 0"),
    ]:
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message


def test_resolve_preferences_user_over_group():
    prefs = {
        "ada": PreferenceList(("a",)),
        "research": PreferenceList(("b",)),
        "astro": PreferenceList(("c",)),
    }
    assert resolve_preferences(prefs, "ada", ["research"]).providers == ("a",)
    assert resolve_preferences(prefs, "eve", ["research"]).providers == ("b",)
    # groups are tried in name order
    assert resolve_preferences(prefs, "eve", ["research", "astro"]).providers == ("c",)
    assert resolve_preferences(prefs, "eve", ["nobody"]) is None


def test_config_from_env(tmp_path, monkeypatch):
    path = tmp_path / "engine.cfg"
    path.write_text("w_sla = 5.0\n")
    monkeypatch.setenv("ORCH_CONFIG", str(path))
    assert config_from_env().ranker.w_sla == 5.0
    monkeypatch.delenv("ORCH_CONFIG")
    assert config_from_env().ranker.w_sla == 1.0
    explicit = tmp_path / "other.cfg"
    explicit.write_text("w_sla = 7.0\n")
    assert config_from_env(str(explicit)).ranker.w_sla == 7.0


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/engine.cfg")


def test_documented_example_has_exactly_the_keys_the_reader_takes():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "formats.md"), encoding="utf-8") as handle:
        section = handle.read().split("## Engine config", 1)[1]
    example = section.split("```\n", 2)[1]
    parse_config(example)
    keys = [line.partition("=")[0].strip() for line in example.splitlines()]
    # "prefs.<user-or-group>" stands for every key with the prefix "prefs."
    names = {key.partition(".")[0] + key.partition(".")[1] for key in keys}
    assert names == set(config_mod._KINDS)
