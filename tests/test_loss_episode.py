"""The sender's loss episode: one record, one start, one `on_loss`.

`Sender._start_episode` is the only place that opens an episode and the
only caller of the controller's `on_loss`, and the one ACK that covers the
episode's `high` ends it. Checked three ways: over random scenarios, by
hand-driving the sender through each transition, and statically on the
sender's code.

The two timeout pins state the timeout's behaviour as it stands: a fresh
timeout opens an episode with no window inflation and with `snd_una` not
marked repaired, and a timeout inside an open episode leaves it as it is.
The fix of the timeout defect (ROADMAP, "A timeout ends the loss
episode") changes both on purpose, following RFC 6582 section 3.2.
"""

import inspect

import pytest
from hypothesis import example, given, settings
from test_event_lanes import every_event_scenario, scenarios

from roccet_lab import simulator
from roccet_lab.cc_types import CubicParams
from roccet_lab.controllers import CubicController
from roccet_lab.simulator import DUP_ACK_THRESHOLD, AppSource, Bottleneck, EventLoop, Sender


class _Watch:
    """Stands in for a sender's controller: counts its `on_loss` calls
    and the sender's episode starts, and checks each ACK's `in_recovery`
    against the sender's episode."""

    def __init__(self, ctl, sender):
        self.ctl = ctl
        self.sender = sender
        self.losses = 0
        self.starts = 0

    def __getattr__(self, name):
        return getattr(self.ctl, name)

    def on_ack(self, ack):
        assert ack.in_recovery == (self.sender.episode is not None)
        self.ctl.on_ack(ack)

    def on_loss(self, now_us):
        self.losses += 1
        self.ctl.on_loss(now_us)


@settings(max_examples=40, deadline=None)
@example(spec=every_event_scenario())
@given(spec=scenarios())
def test_one_on_loss_per_episode_start(spec):
    watches = []
    init = Sender.__init__
    start = Sender._start_episode

    def watched_init(self, loop, flow_id, controller, *args):
        watch = _Watch(controller, self)
        watches.append(watch)
        init(self, loop, flow_id, watch, *args)

    def watched_start(self, by_timeout):
        assert self.episode is None
        self.ctl.starts += 1
        start(self, by_timeout)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Sender, "__init__", watched_init)
        m.setattr(Sender, "_start_episode", watched_start)
        simulator.run(spec)
    assert len(watches) == len(spec.flows)
    for watch in watches:
        assert watch.losses == watch.starts


def test_only_start_episode_opens_an_episode():
    # Among the sender's methods, one builds the record and reports the
    # loss to the controller.
    openers = [
        name for name, fn in vars(Sender).items()
        if inspect.isfunction(fn) and {"on_loss", "_LossEpisode"} & set(fn.__code__.co_names)
    ]
    assert openers == ["_start_episode"]


def _sender():
    """A sender that has sent its initial window on a 10 ms path whose
    receiver stays silent: the test hands it each ACK."""
    loop = EventLoop()
    link = Bottleneck(loop, capacity_segs=1000, rate_bps=10_000_000, prop_delay_us=10_000, injector=None)
    link.deliver_cb["f"] = lambda pkt: None
    sender = Sender(
        loop, "f", CubicController(CubicParams()), AppSource("greedy", None, 0, None, 1500), link
    )
    loop.schedule(0, sender.start)
    loop.run_until(30_000)
    assert sender.snd_nxt > DUP_ACK_THRESHOLD + 1 and sender.episode is None
    return loop, sender


def _losses(sender):
    return sum(kind == "loss_ce" for _, kind in sender.ctl.ce_events)


def _fast_retransmit(sender):
    """One new-data ACK, then three duplicates for segment 1."""
    sender.on_ack_frame((1, 0, 20_001))
    for rseq in range(2, 2 + DUP_ACK_THRESHOLD):
        high = sender.snd_nxt
        sender.on_ack_frame((1, rseq, 20_001))
    return high


def test_fast_retransmit_opens_an_inflated_episode():
    loop, sender = _sender()
    high = _fast_retransmit(sender)
    episode = sender.episode
    assert (episode.high, episode.inflation, episode.repaired, episode.cursor) == (
        high, DUP_ACK_THRESHOLD, {1}, 2,
    )
    assert sender.retransmits == 1 and _losses(sender) == 1
    # The ACK that covers `high` ends it.
    sender.on_ack_frame((high, high - 1, 20_001))
    assert sender.episode is None and sender._ack.in_recovery is False


def test_fresh_timeout_opens_an_episode_without_inflation():
    loop, sender = _sender()
    high = sender.snd_nxt
    loop.run_until(sender._rto_at)
    episode = sender.episode
    assert (episode.high, episode.inflation, episode.repaired, episode.cursor) == (
        high, 0, set(), 0,
    )
    assert sender.retransmits == 1 and _losses(sender) == 1


def test_timeout_inside_an_episode_keeps_its_record():
    loop, sender = _sender()
    _fast_retransmit(sender)
    episode = sender.episode
    fields = (episode.high, episode.inflation, set(episode.repaired), episode.cursor)
    loop.run_until(sender._rto_at)
    assert sender.episode is episode
    assert (episode.high, episode.inflation, episode.repaired, episode.cursor) == fields
    assert sender.retransmits == 2 and _losses(sender) == 1
    assert sender.dup_acks == 0
