"""Tests for repro.cdn.server — roles and cache servers."""

import pytest

from repro.cdn.cache import ContentCache
from repro.cdn.server import (
    CacheServer,
    SecondaryFunction,
    ServerFunction,
    ServerRole,
)
from repro.net.asys import AS_APPLE
from repro.net.ipv4 import IPv4Address


class TestServerRole:
    def test_str_with_secondary(self):
        role = ServerRole(ServerFunction.EDGE, SecondaryFunction.BX)
        assert str(role) == "edge-bx"

    def test_str_without_secondary(self):
        assert str(ServerRole(ServerFunction.GSLB)) == "gslb"

    def test_all_table1_functions_exist(self):
        assert {f.value for f in ServerFunction} == {
            "vip", "edge", "gslb", "dns", "ntp", "tool",
        }

    def test_all_table1_secondaries_exist(self):
        assert {s.value for s in SecondaryFunction} == {"bx", "lx", "sx"}

    def test_roles_hashable(self):
        a = ServerRole(ServerFunction.VIP, SecondaryFunction.BX)
        b = ServerRole(ServerFunction.VIP, SecondaryFunction.BX)
        assert len({a, b}) == 1


class TestCacheServer:
    def _server(self, **overrides):
        defaults = dict(
            hostname="Defra1-Edge-Bx-001.TS.Apple.COM",
            address=IPv4Address.parse("17.253.1.1"),
            role=ServerRole(ServerFunction.EDGE, SecondaryFunction.BX),
            asn=AS_APPLE,
            cache=ContentCache(100),
        )
        defaults.update(overrides)
        return CacheServer(**defaults)

    def test_hostname_lowercased(self):
        assert self._server().hostname == "defra1-edge-bx-001.ts.apple.com"

    def test_accounting(self):
        server = self._server()
        server.account(100)
        server.account(50)
        assert server.served_bytes == 150
        with pytest.raises(ValueError):
            server.account(-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            self._server(capacity_gbps=0.0)

    def test_str_mentions_role_and_address(self):
        text = str(self._server())
        assert "edge-bx" in text
        assert "17.253.1.1" in text
