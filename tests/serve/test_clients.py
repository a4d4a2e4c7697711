"""Tests for repro.serve.clients — the address ⇄ geography contract."""

import pytest

from repro.net.geo import Continent
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.serve import DEFAULT_VANTAGES, ClientDirectory, Vantage


class TestVantage:
    def test_context_carries_full_geography(self):
        vantage = DEFAULT_VANTAGES[0]  # de-frankfurt
        client = IPv4Address.parse("100.64.0.17")
        context = vantage.context(client, now=42.0)
        assert context.client == client
        assert context.country == "de"
        assert context.continent is Continent.EUROPE
        assert context.now == 42.0

    def test_blocks_are_disjoint(self):
        for first in DEFAULT_VANTAGES:
            for second in DEFAULT_VANTAGES:
                if first is second:
                    continue
                assert not first.prefix.contains(second.prefix.network)


class TestClientDirectory:
    def test_sampling_is_deterministic(self):
        directory = ClientDirectory()
        for sequence in (0, 1, 17, 999):
            first = directory.sample(sequence)
            second = directory.sample(sequence)
            assert first.address == second.address
            assert first.vantage is second.vantage

    def test_sampled_addresses_reverse_to_their_vantage(self):
        directory = ClientDirectory()
        for sequence in range(50):
            client = directory.sample(sequence)
            assert directory.vantage_for(client.address) is client.vantage

    def test_context_round_trip_matches_sampled_client(self):
        # The server-side reconstruction must agree with the client's
        # own view — the invariant the equivalence tests build on.
        directory = ClientDirectory()
        for sequence in range(20):
            client = directory.sample(sequence)
            assert directory.context_for(client.address, 5.0) == client.context(5.0)

    def test_weighted_sampling_respects_zero_weight(self):
        only = DEFAULT_VANTAGES[3].name  # us-newyork
        weights = {v.name: 0.0 for v in DEFAULT_VANTAGES}
        weights[only] = 1.0
        directory = ClientDirectory(weights=weights)
        assert all(
            directory.sample(sequence).vantage.name == only
            for sequence in range(30)
        )

    def test_from_adoption_spans_continents(self):
        directory = ClientDirectory.from_adoption()
        continents = {
            directory.sample(sequence).vantage.continent
            for sequence in range(300)
        }
        assert Continent.EUROPE in continents
        assert Continent.NORTH_AMERICA in continents
        assert len(continents) >= 3

    def test_unknown_address_falls_back_to_first_vantage(self):
        directory = ClientDirectory()
        context = directory.context_for(IPv4Address.parse("192.0.2.1"))
        assert context.country == DEFAULT_VANTAGES[0].country

    def test_unknown_weight_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ClientDirectory(weights={"atlantis": 1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            ClientDirectory(weights={v.name: 0.0 for v in DEFAULT_VANTAGES})

    def test_duplicate_names_rejected(self):
        vantage = DEFAULT_VANTAGES[0]
        with pytest.raises(ValueError, match="unique"):
            ClientDirectory([vantage, vantage])

    def test_empty_directory_rejected(self):
        with pytest.raises(ValueError):
            ClientDirectory([])

    def test_custom_vantage_block(self):
        custom = Vantage(
            name="test",
            prefix=IPv4Prefix.parse("100.127.0.0/24"),
            country="nl",
            continent=Continent.EUROPE,
            coordinates=DEFAULT_VANTAGES[0].coordinates,
        )
        directory = ClientDirectory([custom])
        client = directory.sample(0)
        assert custom.prefix.contains(client.address)
        # The network address itself is never handed out.
        assert client.address != custom.prefix.network


class TestSamplingAgainstLinearScan:
    """``sample`` / ``sample_in_region`` bisect the cumulative bounds;
    the oracle is the scan they replaced, line for line."""

    @staticmethod
    def _scan(bounds, fraction):
        index = 0
        for index, bound in enumerate(bounds):
            if fraction < bound:
                break
        return index

    @staticmethod
    def _address(vantage, sequence):
        host_space = (1 << (32 - vantage.prefix.length)) - 2
        offset = 1 + (sequence % max(1, host_space))
        return IPv4Address(vantage.prefix.network.value + offset)

    def _oracle(self, directory, fraction, sequence, region=None):
        if region is None or not directory._region_indexes.get(region):
            index = self._scan(directory._cumulative, fraction)
        else:
            position = self._scan(directory._region_cumulative[region], fraction)
            index = directory._region_indexes[region][position]
        vantage = directory.vantages[index]
        return self._address(vantage, sequence), vantage

    def _directories(self):
        narrow = Vantage(
            name="narrow", prefix=IPv4Prefix.parse("100.80.0.0/31"), country="is",
            continent=Continent.EUROPE, coordinates=DEFAULT_VANTAGES[0].coordinates,
        )
        return [
            ClientDirectory.from_adoption(),
            ClientDirectory(),
            # Zero weights make neighbouring bounds equal; a /31 has no
            # host space to spread over.
            ClientDirectory(
                DEFAULT_VANTAGES + (narrow,),
                weights={"uk-london": 0.0, "fr-paris": 0.0, "jp-tokyo": 0.0,
                         "za-johannesburg": 0.0, "narrow": 3.0},
            ),
        ]

    def test_ten_thousand_sequences_draw_the_same_clients(self):
        from repro.dns.policies import stable_fraction
        from repro.net.geo import MappingRegion

        for directory in self._directories():
            for sequence in range(10_000):
                fraction = stable_fraction("serve-client", sequence, "")
                sampled = directory.sample(sequence)
                assert (sampled.address, sampled.vantage) == self._oracle(
                    directory, fraction, sequence
                )
                region = list(MappingRegion)[sequence % len(MappingRegion)]
                fraction = stable_fraction(
                    "serve-client-region", region.value, sequence, ""
                )
                sampled = directory.sample_in_region(region, sequence)
                assert (sampled.address, sampled.vantage) == self._oracle(
                    directory, fraction, sequence, region
                )

    def test_a_draw_exactly_on_a_bound_belongs_to_the_next_vantage(self, monkeypatch):
        from repro.net.geo import MappingRegion
        from repro.serve import clients

        drawn = []
        monkeypatch.setattr(clients, "stable_fraction", lambda *_key: drawn[-1])
        for directory in self._directories():
            edges = {0.0, 1.0, 0.9999999999999999}
            edges.update(directory._cumulative)
            for bounds in directory._region_cumulative.values():
                edges.update(bounds)
            for sequence, fraction in enumerate(sorted(edges)):
                drawn.append(fraction)
                sampled = directory.sample(sequence)
                assert (sampled.address, sampled.vantage) == self._oracle(
                    directory, fraction, sequence
                )
                for region in MappingRegion:
                    sampled = directory.sample_in_region(region, sequence)
                    assert (sampled.address, sampled.vantage) == self._oracle(
                        directory, fraction, sequence, region
                    )
