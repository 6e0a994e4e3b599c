"""Tests for repro.scenario: the one place params, horizon and budget come from."""

import json
from pathlib import Path

import pytest

from repro.baselines.ben_or import ben_or_horizon
from repro.chaos.fuzzer import FuzzCase, FuzzScenario, replay_case, run_scenario
from repro.chaos.script import CrashScript
from repro.core.schedule import AgreementSchedule, LeaderElectionSchedule
from repro.errors import ConfigurationError
from repro.faults import named_adversary
from repro.net import WireSpec
from repro.parallel.tasks import ben_or_trial
from repro.params import Params
from repro.scenario import Scenario

DATA = Path(__file__).parent / "data"


class TestDerivations:
    def test_paper_protocols_follow_params(self):
        params = Params(n=64, alpha=0.5)
        election = Scenario("election", 64, 0.5, extra_rounds=2)
        agreement = Scenario("agreement", 64, 0.5)
        assert election.params() == params
        assert election.fault_budget() == params.max_faulty
        assert election.horizon() == (
            LeaderElectionSchedule.from_params(params).last_round + 2
        )
        assert agreement.horizon() == AgreementSchedule.from_params(params).last_round

    def test_params_override_and_explicit_budget_win(self):
        tuned = Params(n=64, alpha=0.5, iteration_factor=4.0)
        scenario = Scenario(
            "agreement", 64, 0.5, faulty_count=3, params_override=tuned
        )
        assert scenario.params() is tuned
        assert scenario.fault_budget() == 3
        assert scenario.horizon() == AgreementSchedule.from_params(tuned).last_round

    def test_ben_or_budget_is_capped_below_half(self):
        assert Scenario("ben_or", 64, 0.5).fault_budget() == 31
        assert Scenario("ben_or", 64, 0.75).fault_budget() == 16
        assert Scenario("ben_or", 64, 0.5, extra_rounds=1).horizon() == ben_or_horizon() + 1

    def test_flooding_budget_is_the_scripts_faulty_set(self):
        plain = WireSpec(protocol="flooding", n=8, extra_rounds=2)
        scripted = plain.with_(script=CrashScript(faulty=(1, 4, 6), crashes={}))
        assert plain.fault_budget() == 0 and plain.horizon() == 0 + 3 + 2
        assert scripted.fault_budget() == 3 and scripted.horizon() == 3 + 3 + 2

    def test_election_without_inputs_has_no_input_bits(self):
        with pytest.raises(ConfigurationError, match="no inputs"):
            Scenario("election", 16, 0.5, inputs=None).input_bits(0)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            Scenario("paxos", 16, 0.5)

    def test_round_trips_through_json(self):
        scenario = Scenario(
            "agreement",
            32,
            0.5,
            inputs=[0, 1] * 16,
            faulty_count=4,
            extra_rounds=1,
            params_override=Params(n=32, alpha=0.5, referee_factor=1.5),
        )
        text = json.dumps(scenario.to_dict())
        assert Scenario.from_dict(json.loads(text)) == scenario


class TestBenOrBudget:
    def test_fuzzing_uses_the_sweep_budget(self):
        scenario = FuzzScenario("ben_or", n=64)
        adversary = named_adversary("eager", scenario.horizon())
        _, result = run_scenario(scenario, 1, adversary)
        trial = ben_or_trial(seed=1, n=64, alpha=0.5, adversary="eager")
        assert len(result.faulty) == trial["faulty"] == 31


class TestOnDiskFormats:
    """Files written before Scenario existed load and re-serialise unchanged."""

    def test_fuzz_case_v2_round_trips_and_replays(self):
        text = (DATA / "fuzzcase_agreement_v2.json").read_text()
        case = FuzzCase.from_json(text)
        assert case.to_json() + "\n" == text
        assert case.violations
        assert replay_case(case) == case.violations

    def test_scripted_wire_spec_round_trips(self):
        text = (DATA / "wirespec_agreement_scripted.json").read_text()
        spec = WireSpec.from_dict(json.loads(text))
        assert json.dumps(spec.to_dict(), indent=2) + "\n" == text
        assert spec.script is not None and spec.script.crashes
