import pickle

import pytest

from punchsim.packets import (MESSAGES, REPLY, Endpoint, Packet, PacketKind, message_bytes,
                              unchecked_endpoint)


class TestEndpoint:
    @pytest.mark.parametrize("host,port", [("", 1), ("h", -1), ("h", 65_536)])
    def test_rejects_invalid(self, host, port):
        with pytest.raises(ValueError):
            Endpoint(host, port)

    def test_port_bounds_inclusive(self):
        assert Endpoint("h", 0).port == 0
        assert Endpoint("h", 65_535).port == 65_535

    def test_str_and_repr(self):
        assert str(Endpoint("h", 1)) == "h:1"
        assert repr(Endpoint("h", 1)) == "Endpoint(host='h', port=1)"

    def test_keyword_construction(self):
        assert Endpoint(host="h", port=1) == Endpoint("h", 1)

    def test_ordering_by_host_then_port(self):
        eps = [Endpoint("b", 1), Endpoint("a", 2), Endpoint("a", 1)]
        assert sorted(eps) == [Endpoint("a", 1), Endpoint("a", 2), Endpoint("b", 1)]
        assert Endpoint("a", 9) < Endpoint("b", 0)

    def test_equal_endpoints_share_one_dict_key(self):
        a, b = Endpoint("h", 1), Endpoint("h", 1)
        assert a == b and hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1

    def test_pickle_round_trip(self):
        # Worker processes receive and return endpoints by pickle.
        ep = Endpoint("h", 1)
        back = pickle.loads(pickle.dumps(ep))
        assert back == ep and type(back) is Endpoint

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Endpoint("h", 1).port = 2

    def test_unchecked_endpoint_is_an_endpoint_built_without_its_check(self, monkeypatch):
        checked = Endpoint("h", 1)

        def refuse(self):
            raise AssertionError("unchecked_endpoint ran Endpoint.__post_init__")

        monkeypatch.setattr(Endpoint, "__post_init__", refuse)
        ep = unchecked_endpoint(Endpoint, ("h", 1))
        assert type(ep) is Endpoint and ep == checked and hash(ep) == hash(checked)
        assert len({ep: 1, checked: 2}) == 1 and (ep.host, ep.port) == ("h", 1)


class TestPacket:
    def test_validates_fields(self):
        ep = Endpoint("h", 1)
        with pytest.raises(ValueError):
            Packet(src=ep, dst=ep, kind=PacketKind.UDP_DATAGRAM, ttl=0)


class TestMessages:
    BOOK = {"QUIC": Endpoint("h", 1), "TCP": Endpoint("h", 2)}

    @pytest.mark.parametrize("tag,size", [
        (("obs", 1), 24), (("rsv-req", 1, "p"), 24), (("conn-req", 1, "a", "b"), 24),
        (("conn-in", 1, "b"), 24), (("circ-close", 1), 24), (("circ-reset", 1, "closed"), 24),
        ((REPLY, 1, None), 24), (("ping", 1), 32), ((REPLY, 1), 32), ("dummy", 30),
        (("id", BOOK), 112), (("id", {}), 96), (("connect", 1, BOOK), 112),
        (("connect-reply", 1, {"QUIC": Endpoint("h", 1)}, 0.0), 104),
        (("stream-open",), 32), (("stream-ack",), 32), (("sync", 1), 16),
        (("circ", 1, ("sync", 1)), 24), (("circ", 1, ("ping", 1)), 40),
        (("circ", 1, "dummy"), 38),
    ])
    def test_size_follows_from_the_tag(self, tag, size):
        assert message_bytes(tag) == size

    def test_sixteen_kinds(self):
        assert len(MESSAGES) == 16

    @pytest.mark.parametrize("tag", ["raw", ("hello",), ("circ", 1, ("x",))])
    def test_a_kind_with_no_row_raises(self, tag):
        with pytest.raises(KeyError):
            message_bytes(tag)
