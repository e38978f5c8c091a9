import pickle

import pytest

from punchsim.packets import Endpoint, Packet, PacketKind


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


class TestPacket:
    def test_validates_fields(self):
        ep = Endpoint("h", 1)
        with pytest.raises(ValueError):
            Packet(src=ep, dst=ep, kind=PacketKind.UDP_DATAGRAM, ttl=0)
        with pytest.raises(ValueError):
            Packet(src=ep, dst=ep, kind=PacketKind.UDP_DATAGRAM, size_bytes=-1)
