"""Byte-identity pins: the sha256 of `trace.csv` and of the whole
`events.json` (`events_processed` included) for every builtin at its
default algorithm, for `steady` under each algorithm and once more
under probe_rate through PROBE_RTT, for five variants
that reach source, loss and controller paths no builtin does, and for
one fairness cell whose drops put ROCCET flows through loss repair, at
shortened horizons; and the sha256 of the debug packet log of two of
those runs, which the artifacts do not contain.

A change that only makes the simulator faster must leave every digest
as it is. A change that alters behaviour on purpose re-records them and
says so; print the current digests with

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import hashlib
import io

import pytest

from roccet_lab.cc_types import CubicParams
from roccet_lab.harness import LossSpec, SourceSpec, builtin_scenario
from roccet_lab.roccet import RoccetParams
from roccet_lab.simulator import run

# (builtin, algo or None for the default, horizon in s): bw-halving runs
# past its 15 s rate cut, frozen-cwnd past both injected drops, and the
# 12 s probe_rate run enters PROBE_RTT at 10.04 s and leaves it (the 6 s
# one stops in PROBE_BW).
CASES = {
    "bw-halving": ("bw-halving", None, 16.0),
    "frozen-cwnd": ("frozen-cwnd", None, 5.0),
    "fairness-50x30": ("fairness-50x30", None, 4.0),
    "fairness-10x40": ("fairness-10x40", None, 8.0),
    "steady-cubic": ("steady", "cubic", 6.0),
    "steady-reno": ("steady", "reno", 6.0),
    "steady-roccet": ("steady", "roccet", 6.0),
    "steady-probe_rate": ("steady", "probe_rate", 6.0),
    "steady-probe_rate-probe-rtt": ("steady", "probe_rate", 12.0),
    "app-limited-duration": ("frozen-cwnd", None, 5.0),
    "greedy-duration": ("steady", "roccet", 4.0),
    "loss-window-jitter": ("fairness-10x40", None, 5.0),
    "roccet-rtt-min-refresh": ("steady", "roccet", 6.0),
    "frozen-cwnd-no-freeze": ("frozen-cwnd", None, 5.0),
    "fairness-8x1bdp": ("fairness-10x40", None, 6.0),
}

# Builtin options of the cases that take any: eight ROCCET flows and a
# CUBIC rival in a one-BDP buffer, where duplicate ACKs during repair
# move the sender's smoothed RTT that srRTT reads.
OPTIONS = {
    "fairness-8x1bdp": {"n_flows": 8, "buffer_bdp": 1.0, "competitor": "cubic"},
}


def _one_source(spec, source):
    return spec._replace(flows=(spec.flows[0]._replace(source=source),))


def _each_flow(spec, **changes):
    return spec._replace(flows=tuple(f._replace(**changes) for f in spec.flows))


# Paths no builtin reaches, applied on top of the builtin of the same case:
# an app-limited source (odd rate, late start) that ends before the
# horizon, a greedy source with an end, and probabilistic loss with jitter
# inside a window next to fixed drops on a three-flow dumbbell; ROCCET
# refreshing a stale rtt_min every half second, and app-limited CUBIC
# growing its window without the freeze.
VARIANTS = {
    "app-limited-duration": lambda spec: _one_source(
        spec,
        SourceSpec(
            kind="app_limited", rate_bps=17_300_001, start_us=250_000, duration_us=2_750_000
        ),
    ),
    "greedy-duration": lambda spec: _one_source(
        spec, SourceSpec(kind="greedy", start_us=100_000, duration_us=2_000_000)
    ),
    "loss-window-jitter": lambda spec: spec._replace(
        flows=spec.flows + (spec.flows[0]._replace(flow_id="cubic_rival", algo="cubic"),),
        loss=LossSpec(
            drop_at_us=(500_000, 4_200_000),
            drop_prob=0.01,
            window_us=(1_500_000, 3_500_000),
            jitter_us=2_500,
        ),
    ),
    "roccet-rtt-min-refresh": lambda spec: _each_flow(
        spec, roccet=RoccetParams(rtt_min_refresh=True, rtt_min_refresh_age_us=500_000)
    ),
    "frozen-cwnd-no-freeze": lambda spec: _each_flow(
        spec, cubic=CubicParams(app_limited_freeze=False)
    ),
}

# case: (sha256 of trace.csv, sha256 of events.json)
DIGESTS = {
    "bw-halving": (
        "5e41fc29bac1e1a431c20f2b7058840087643910faa1b1ef9962e2e8f43ea4dc",
        "5ed34db43482913e4fc20a63020f7537bfc797fd542a93ccf97ed620c5b28b78",
    ),
    "frozen-cwnd": (
        "921c29143dd0fc7a99872dd1a5c323a0d213f12506abb0d3f480d60024da707d",
        "df32a9e705820c9af95463579faef06fac89e70952e0e5bd7687b4a75bac20fd",
    ),
    "fairness-50x30": (
        "fdc7e07744bf5f4a89ab427b3838c2f8dfbd2d2700329331edeb5dec83b6c323",
        "a6837bceb403f3e06765e8c1b32e96f62e062c77973c7f8a7ae2d6456bef893b",
    ),
    "fairness-10x40": (
        "ed7874110a74dbd18fa9c7d4280b31f07f824e7712fce11ea6f6dab6e6a0dda2",
        "24aef8f5329404b9eab59dd5ddf0354f028ba87524b7b248a6fb063a33ecf363",
    ),
    "steady-cubic": (
        "c97820bf0c23a58927c2a9964325ad6ad402cd76d0c6f676e5ae78c741759fef",
        "10389ff7f3238d483652c31d35e4bf12847a9a571b5d4e0db276c96feff471d8",
    ),
    "steady-reno": (
        "18cd0e41480afa3372360a5d1552cab997d592ad2e98df3acdc15e02f62fdbab",
        "4c1417d83867b8b3c55bb966221fa0bdc0aeec57bac1bb0cee216ff67af51a8e",
    ),
    "steady-roccet": (
        "89a720766749ab47fa3d12e68f9eef8c323b111fafc282400bde38c9d756b563",
        "4f4c359e0086ba9b91fd65de24289ea968f1af7d8ae6ff28874e868abdf240e8",
    ),
    "steady-probe_rate": (
        "bf7c43e5e7e1a13539afffadc6ac901910d494d344b0c9210a0f92b32cee3b2a",
        "21e15f73041eaac25323a6a904c210a4ccc96e86676fe637f8ac9b09f2f300c3",
    ),
    "steady-probe_rate-probe-rtt": (
        "89d011b5419b0abf3cd549ecf6ace4a394dc446829f1ca5392f9bfa11fe8aa3d",
        "bd8a3dbfb2d1e717e529567054dcba044964c189e055b0777035f3d16e1d4208",
    ),
    "app-limited-duration": (
        "d7926caf4e28f1e9c0abe600f83dd60a53a8ec8dcd40777a3a5e487765029876",
        "d81b46b5200d921d130ffa36736e208f240380308402077a746ba19e6d5d70e7",
    ),
    "greedy-duration": (
        "5bca34da50b202afe3a07ee722b6da2ad1dc18cce78a9eb1bb59382bd3b0c492",
        "daf35ad6307171eead78f1d5f6efb4f1cfefe69e7f924e32f0e98173c0e035b0",
    ),
    "loss-window-jitter": (
        "ce44420f6bbf136cdef0164ed315cfadcee894a0fd40eac4070ba1725d610c0f",
        "12ecf217c0453dbd2f63b6563ffe70e9cd975a6fe06050b6ac7858a4d209942f",
    ),
    "roccet-rtt-min-refresh": (
        "98c41cae718602d510ae51ea8f2fb60f212e42fda4a75b8224dd3788d2c9dbe1",
        "b9715bb831d0a3b512397769c955fed08c02d014cddd6ba64c72f6c48f3c2c9e",
    ),
    "frozen-cwnd-no-freeze": (
        "e74671fb09f060ac7a957858e561ec827af66947db749836afc96bf91143bfb1",
        "1bfd58ad230b24a007f75222bee00839a688cba8c1695d63d59a607beb10bc24",
    ),
    "fairness-8x1bdp": (
        "f5363a0b973d0d18591d0d537c5e219491d37777dd29587d7e1ccf5c1191daad",
        "843bd9160e9f3d2b0a2bde8e808ec600e872490587661401a1f86a61b520f65f",
    ),
}


# case: sha256 of `repr(traces.debug_packets)` when run with debug=True.
# The packet log is every segment's (flow, seq, enqueue, service start,
# service end, delivery, retransmit); these two cover a rate cut, and
# injected, random and queue drops with delivery jitter.
PACKET_LOG_DIGESTS = {
    "bw-halving": "ac63dee054e2efc93169acdbe77480389265d93b5fbc02c07b77d11e28a9d199",
    "loss-window-jitter": "18ee67bdee2ae6084894b34688dd92cee1ab9de6574c1c01ab7f13f16565dc86",
}


def run_case(name: str, debug: bool = False):
    builtin, algo, horizon_s = CASES[name]
    spec = builtin_scenario(
        builtin, algo=algo, seed=1, horizon_s=horizon_s, **OPTIONS.get(name, {})
    )
    if name in VARIANTS:
        spec = VARIANTS[name](spec)
    spec = spec._replace(debug=debug)
    spec.validate()
    return run(spec)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(name: str) -> tuple[str, str]:
    traces = run_case(name)
    trace_csv, events_json = io.StringIO(), io.StringIO()
    traces.write_csv(trace_csv)
    traces.write_events_json(events_json)
    return _sha256(trace_csv.getvalue()), _sha256(events_json.getvalue())


def packet_log_digest(name: str) -> str:
    return _sha256(repr(run_case(name, debug=True).debug_packets))


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_byte_identical(name):
    assert digests(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PACKET_LOG_DIGESTS))
def test_packet_log_identical(name):
    assert packet_log_digest(name) == PACKET_LOG_DIGESTS[name]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": (\n        "%s",\n        "%s",\n    ),' % digests(case))
    print()
    for case in PACKET_LOG_DIGESTS:
        print(f'    "{case}": "{packet_log_digest(case)}",')
