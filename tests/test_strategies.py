import concurrent.futures
import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchsim.dcutr import DcutrConfig
from punchsim.kernel import RandomStream, Simulation
from punchsim.nat import (FilteringBehavior, MappingBehavior, NatConfig,
                          NatState, PortAllocation)
from punchsim.net import HOP_DISTANCE, Network
from punchsim.packets import Endpoint, Packet, PacketKind
from punchsim import strategies
from punchsim.strategies import (BirthdayPlan, BirthdayScenario, assign_roles,
                                 birthday_monte_carlo, birthday_probability,
                                 birthday_punch, both_edm_pair_share,
                                 dial_arrival_skew, expected_gain,
                                 mixed_pair_share, refined_wait_time)

# The mixed scenario's endpoint-dependent NAT over the full port space.
EDM = NatConfig(mapping=MappingBehavior.APDM,
                filtering=FilteringBehavior.APDF,
                port_alloc=PortAllocation.RANDOM)


def edm_nat(space, seed, label="edm"):
    cfg = NatConfig(mapping=MappingBehavior.APDM,
                    filtering=FilteringBehavior.APDF,
                    port_alloc=PortAllocation.RANDOM,
                    port_range=(0, space - 1))
    return NatState(cfg, public_host=f"{label}#nat",
                    rng=RandomStream(seed, f"nat/{label}"))


class TestBirthdayOracle:
    def test_mixed_exhaustive_space_is_certain(self):
        plan = BirthdayPlan(m_open=16, k_probe=240, port_space=256)
        assert birthday_probability(plan) == 1.0

    def test_mixed_single_probe_is_m_over_s(self):
        plan = BirthdayPlan(m_open=7, k_probe=1, port_space=256)
        assert math.isclose(birthday_probability(plan), 7 / 256,
                            rel_tol=1e-9)

    def test_both_edm_single_pair(self):
        plan = BirthdayPlan(m_open=1, k_probe=1, port_space=256,
                            scenario=BirthdayScenario.EDM_VS_EDM)
        assert math.isclose(birthday_probability(plan), 1 / 256 ** 2,
                            rel_tol=1e-9)

    def test_out_of_range_plans_rejected(self):
        with pytest.raises(ValueError):
            BirthdayPlan(m_open=0, k_probe=1)
        with pytest.raises(ValueError):
            BirthdayPlan(m_open=1, k_probe=70_000)

    @pytest.mark.parametrize("field, value", [("m_open", True), ("k_probe", "5"),
                                              ("port_space", 2.5)])
    def test_mistyped_plans_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            BirthdayPlan(**{"m_open": 1, "k_probe": 1, field: value})

    @pytest.mark.parametrize("field, value, match", [
        ("k_probe", 0, "^k_probe "), ("m_open", 70_000, "exceeds port_space")])
    def test_a_plan_assigned_after_construction_is_checked(self, field, value, match):
        # Unchecked, these gave -0.0 and 1.0.
        plan = BirthdayPlan(m_open=4, k_probe=4)
        setattr(plan, field, value)
        with pytest.raises(ValueError, match=match):
            birthday_probability(plan)
        with pytest.raises(ValueError, match=match):
            birthday_monte_carlo(plan, EDM, 1, 1)

    def test_plan_may_open_or_probe_the_whole_space(self):
        BirthdayPlan(m_open=256, k_probe=256, port_space=256)
        with pytest.raises(ValueError, match="exceeds port_space 256"):
            BirthdayPlan(m_open=256, k_probe=257, port_space=256)

    @given(m=st.integers(1, 200), k=st.integers(1, 200),
           scenario=st.sampled_from(list(BirthdayScenario)))
    def test_probability_is_a_probability(self, m, k, scenario):
        p = birthday_probability(BirthdayPlan(m, k, 1024, scenario))
        assert 0.0 <= p <= 1.0

    @given(m=st.integers(1, 199), k=st.integers(1, 200),
           scenario=st.sampled_from(list(BirthdayScenario)))
    def test_monotone_in_openings(self, m, k, scenario):
        lo = birthday_probability(BirthdayPlan(m, k, 1024, scenario))
        hi = birthday_probability(BirthdayPlan(m + 1, k, 1024, scenario))
        assert hi >= lo - 1e-12

    @given(m=st.integers(1, 200), k=st.integers(1, 199),
           scenario=st.sampled_from(list(BirthdayScenario)))
    def test_monotone_in_probes(self, m, k, scenario):
        lo = birthday_probability(BirthdayPlan(m, k, 1024, scenario))
        hi = birthday_probability(BirthdayPlan(m, k + 1, 1024, scenario))
        assert hi >= lo - 1e-12

    @given(m=st.integers(1, 64), k=st.integers(1, 64))
    def test_both_edm_never_beats_mixed(self, m, k):
        mixed = birthday_probability(BirthdayPlan(m, k, 1024))
        both = birthday_probability(
            BirthdayPlan(m, k, 1024, BirthdayScenario.EDM_VS_EDM))
        assert both <= mixed + 1e-12


class TestBirthdayMonteCarlo:
    def test_mixed_small_space_matches_oracle(self):
        space, m, k, n = 256, 16, 16, 4_000
        plan = BirthdayPlan(m_open=m, k_probe=k, port_space=space)
        expected = birthday_probability(plan)
        peer = Endpoint("peer", 4242)
        hits = 0
        for i in range(n):
            nat = edm_nat(space, seed=101, label=f"e{i}")
            hits += birthday_punch(plan, nat, "edm-host", peer,
                                   RandomStream(101, f"mc/{i}"))
        rate = hits / n
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 4 * sigma

    def test_both_edm_small_space_matches_oracle(self):
        space, m, k, n = 64, 32, 32, 4_000
        plan = BirthdayPlan(m_open=m, k_probe=k, port_space=space,
                            scenario=BirthdayScenario.EDM_VS_EDM)
        expected = birthday_probability(plan)
        hits = 0
        for i in range(n):
            nat = edm_nat(space, seed=202, label=f"e{i}")
            prober = edm_nat(space, seed=202, label=f"p{i}")
            hits += birthday_punch(plan, nat, "edm-host",
                                   Endpoint(prober.public_host, 0),
                                   RandomStream(202, f"mc/{i}"),
                                   prober_nat=prober, prober_host="prober")
        rate = hits / n
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 4 * sigma

    def test_port_space_mismatch_rejected(self):
        plan = BirthdayPlan(m_open=4, k_probe=4, port_space=128)
        nat = edm_nat(256, seed=1)
        with pytest.raises(ValueError):
            birthday_punch(plan, nat, "edm-host", Endpoint("peer", 1),
                           RandomStream(1, "mc"))

    def test_opening_ports_past_the_port_space_fail_before_the_nat(self):
        # Openings leave from ports 20 000 + i, so m_open = 50 000 would
        # need ports up to 69 999.
        plan = BirthdayPlan(m_open=50_000, k_probe=1)
        nat = edm_nat(65_536, seed=1)
        with pytest.raises(ValueError, match="port out of range: 69999"):
            birthday_punch(plan, nat, "edm-host", Endpoint("peer", 1),
                           RandomStream(1, "mc"))
        assert nat.session_count() == 0
        assert not nat._by_port

    def test_probe_ports_past_the_port_space_fail_before_any_nat(self):
        plan = BirthdayPlan(m_open=1, k_probe=40_000,
                            scenario=BirthdayScenario.EDM_VS_EDM)
        nat = edm_nat(65_536, seed=1)
        prober = edm_nat(65_536, seed=1, label="p")
        with pytest.raises(ValueError, match="port out of range: 69999"):
            birthday_punch(plan, nat, "edm-host", Endpoint(prober.public_host, 0),
                           RandomStream(1, "mc"), prober_nat=prober)
        assert nat.session_count() == 0
        assert prober.session_count() == 0

    def test_cold_and_warm_source_cache_punch_alike(self):
        # The opening and probe sources come from a cache; a punch that
        # builds them (cold) and one that reuses them (warm) must leave the
        # same verdicts and NAT tables, in both scenarios.
        def punches(clear):
            runs = []
            for i in range(12):
                if clear:
                    strategies._sources.cache_clear()
                both_edm = i % 2 == 1
                space = 64 if both_edm else 256
                plan = BirthdayPlan(m_open=16, k_probe=16, port_space=space,
                                    scenario=BirthdayScenario.EDM_VS_EDM if both_edm
                                    else BirthdayScenario.EDM_VS_EIM)
                nat = edm_nat(space, seed=3, label=f"e{i}")
                prober = edm_nat(space, seed=3, label=f"p{i}") if both_edm else None
                peer = Endpoint(prober.public_host, 0) if both_edm else Endpoint("peer", 1)
                hit = birthday_punch(plan, nat, "edm-host", peer,
                                     RandomStream(3, f"mc/{i}"), prober_nat=prober)
                runs.append((hit, [sorted(map(astuple, n._by_port.values()))
                                   for n in (nat, prober) if n is not None]))
            return runs

        cold = punches(clear=True)
        assert strategies._sources.cache_info().hits == 0
        warm = punches(clear=False)
        assert strategies._sources.cache_info().hits > 0
        assert cold == warm
        assert {hit for hit, _ in cold} == {True, False}


def sampled_punch_hits(seed, i, m, k, lo=0, hi=65_535):
    """A second oracle for the mixed scenario that builds no NAT: m
    distinct mapped ports, drawn from punch i's NAT stream as
    `NatState.process_outbound` draws them (redrawing a taken port), meet k
    distinct probes, drawn from its probe stream as `birthday_punch` draws
    them."""
    nat_rng = RandomStream(seed, f"nat/{i}")
    mapped = set()
    while len(mapped) < m:
        mapped.add(nat_rng.randint(lo, hi))
    probes = RandomStream(seed, f"mc/{i}").sample(range(lo, hi + 1), k)
    return not mapped.isdisjoint(probes)


class TestSamplingOracle:
    # An extra check beside the protocol-level 20k-punch acceptance test,
    # which it does not replace.
    plan = BirthdayPlan(m_open=256, k_probe=256)

    def test_same_verdict_as_birthday_punch(self):
        verdicts = birthday_monte_carlo(self.plan, EDM, 7, 2_000)
        assert verdicts == [sampled_punch_hits(7, i, 256, 256) for i in range(2_000)]

    def test_hit_rate_matches_analytic_oracle(self):
        n = 20_000
        expected = birthday_probability(self.plan)
        rate = sum(sampled_punch_hits(5, i, 256, 256) for i in range(n)) / n
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) <= max(0.02, 6 * sigma)


class TestMonteCarloDefinition:
    plan = BirthdayPlan(m_open=64, k_probe=64)

    def test_parallel_verdicts_equal_serial(self, monkeypatch):
        started = []

        class Recorder:
            """Stands in for the process pool; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                started.append([list(indices) for *_, indices in chunks])
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        serial = birthday_monte_carlo(self.plan, EDM, 11, 7)
        assert birthday_monte_carlo(self.plan, EDM, 11, 7, workers=3) == serial
        assert started == [3, [[0, 3, 6], [1, 4], [2, 5]]]
        assert birthday_monte_carlo(self.plan, EDM, 11, 2, workers=8) == serial[:2]
        assert started[2:] == [2, [[0], [1]]]

    def test_both_edm_plans_are_rejected(self):
        plan = BirthdayPlan(m_open=4, k_probe=4,
                            scenario=BirthdayScenario.EDM_VS_EDM)
        with pytest.raises(ValueError, match="mixed scenario only"):
            birthday_monte_carlo(plan, EDM, 1, 10)


class TestGainArithmetic:
    def test_pair_shares(self):
        assert math.isclose(mixed_pair_share(0.11), 0.1958, rel_tol=1e-9)
        assert math.isclose(both_edm_pair_share(0.11), 0.0121, rel_tol=1e-9)

    @given(p=st.floats(0.0, 1.0))
    def test_pair_shares_partition_consistently(self, p):
        # mixed + both-EDM + both-EIM shares cover all pairings.
        total = mixed_pair_share(p) + both_edm_pair_share(p) + (1 - p) ** 2
        assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_expected_gain_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            expected_gain(1.5, 0.5)
        with pytest.raises(ValueError):
            expected_gain(0.5, -0.1)


class TestRefinedWait:
    def test_reduces_to_half_rtt_when_symmetric(self):
        assert refined_wait_time(100.0, 20.0, 20.0) == 50.0

    def test_clamped_at_zero(self):
        assert refined_wait_time(10.0, 0.0, 100.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            refined_wait_time(-1.0, 1.0, 1.0)

    @settings(max_examples=200)
    @given(leg_l=st.floats(0.0, 50.0), leg_i=st.floats(0.0, 50.0),
           relay_ow=st.floats(0.1, 200.0))
    def test_skew_never_worse_than_baseline(self, leg_l, leg_i, relay_ow):
        rtt = 2.0 * relay_ow
        refined = refined_wait_time(rtt, 2.0 * leg_l, 2.0 * leg_i)
        skew_refined = dial_arrival_skew(leg_i, leg_l, refined, relay_ow)
        skew_base = dial_arrival_skew(leg_i, leg_l, rtt / 2.0, relay_ow)
        assert skew_refined <= skew_base + 1e-9


class TestRolesAndPriming:
    def test_role_alternation(self):
        base = ("listener", "initiator")
        assert assign_roles(1, base) == base
        assert assign_roles(2, base) == ("initiator", "listener")
        assert assign_roles(3, base) == base

    def test_invalid_attempt_index(self):
        with pytest.raises(ValueError):
            assign_roles(0, ("a", "b"))

    def test_priming_ttl_bound_agrees_with_the_network(self):
        # DcutrConfig accepts a priming TTL exactly when a packet with that
        # TTL, sent to a peer by its host id or its NAT's public name, dies
        # in the core.
        net = Network(Simulation(seed=1))
        net.add_host("a", 10.0, 0.0)
        b = net.add_host("b", 10.0, 0.0, nat_config=NatConfig())
        for to_host in ("b", b.nat.public_host):
            for ttl in range(1, HOP_DISTANCE + 2):
                before = net.dropped_in_core
                net.send("a", Packet(Endpoint("a", 1), Endpoint(to_host, 80),
                                     PacketKind.UDP_DATAGRAM, ttl))
                dropped = net.dropped_in_core > before
                try:
                    DcutrConfig(priming_ttl=ttl)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == dropped, (to_host, ttl)
        net.sim.run()
