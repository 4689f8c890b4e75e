"""Round-trip and robustness tests for the ULS dump format."""

from __future__ import annotations

import datetime as dt
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint
from repro.uls import dumpio
from repro.uls.records import License, MicrowavePath, TowerLocation
from tests.conftest import make_license


class TestRoundTrip:
    def test_single_license(self):
        lic = make_license(
            grant=dt.date(2015, 3, 1), cancellation=dt.date(2019, 9, 30)
        )
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert back.license_id == lic.license_id
        assert back.licensee_name == lic.licensee_name
        assert back.grant_date == lic.grant_date
        assert back.cancellation_date == lic.cancellation_date
        assert back.paths == lic.paths
        for number in lic.locations:
            original = lic.locations[number].point
            parsed = back.locations[number].point
            assert parsed.latitude == pytest.approx(original.latitude, abs=1e-7)
            assert parsed.longitude == pytest.approx(original.longitude, abs=1e-7)

    def test_multiple_licenses_preserve_order(self):
        lics = [make_license(f"L{i}") for i in range(5)]
        back = dumpio.loads(dumpio.dumps(lics))
        assert [lic.license_id for lic in back] == [f"L{i}" for i in range(5)]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "dump.dat"
        dumpio.write_uls_dump([make_license()], path)
        assert len(dumpio.read_uls_dump(path)) == 1

    def test_stream_roundtrip(self):
        buffer = io.StringIO()
        dumpio.write_uls_dump([make_license()], buffer)
        buffer.seek(0)
        assert len(dumpio.read_uls_dump(buffer)) == 1

    def test_multi_receiver_license(self):
        lic = License(
            license_id="L1",
            callsign="W1",
            licensee_name="X",
            grant_date=dt.date(2015, 1, 1),
            locations={
                1: TowerLocation(1, GeoPoint(41.0, -88.0)),
                2: TowerLocation(2, GeoPoint(41.2, -87.8)),
                3: TowerLocation(3, GeoPoint(40.8, -87.8)),
            },
            paths=[
                MicrowavePath(1, 1, 2, (10995.0,)),
                MicrowavePath(2, 1, 3, (11485.0, 6063.8)),
            ],
        )
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert len(back.paths) == 2
        assert back.paths[1].frequencies_mhz == (11485.0, 6063.8)


class TestErrors:
    def test_rejects_pipe_in_field(self):
        lic = make_license(licensee="Evil|Pipes Inc")
        with pytest.raises(dumpio.DumpFormatError):
            dumpio.dumps([lic])

    def test_rejects_record_before_header(self):
        with pytest.raises(dumpio.DumpFormatError, match="before any HD"):
            dumpio.loads("EN|L1|Someone\n")

    def test_rejects_unknown_record_type(self):
        text = dumpio.dumps([make_license()]) + "ZZ|L0001|x\n"
        with pytest.raises(dumpio.DumpFormatError, match="unknown record"):
            dumpio.loads(text)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(dumpio.DumpFormatError, match="HD needs 9"):
            dumpio.loads("HD|L1|W1\n")

    def test_rejects_foreign_license_record(self):
        lines = dumpio.dumps([make_license("L1")]).splitlines()
        lines.insert(2, "PA|OTHER|1|1|2")
        with pytest.raises(dumpio.DumpFormatError):
            dumpio.loads("\n".join(lines) + "\n")

    def test_rejects_bad_frequency(self):
        lic = make_license("L2", frequencies=(11225.0,))
        good = dumpio.dumps([lic])
        bad = good.replace("11225.0", "nan")
        with pytest.raises(dumpio.DumpFormatError, match="bad frequency"):
            dumpio.loads(bad)

    @pytest.mark.parametrize(
        "text, line",
        [
            # A record with no license id after a header.
            ("HD|L1|W1|MG|FXO|2015-03-01|||\nEN\n", 2),
            # A non-integer path number.
            ("HD|L1|W1|MG|FXO|2015-03-01|||\nPA|L1|x|1|2\n", 2),
            # A non-numeric frequency.
            ("HD|L1|W1|MG|FXO|2015-03-01|||\nFR|L1|1|abc\n", 2),
            # An impossible grant date.
            ("HD|L1|W1|MG|FXO|2015-13-01|||\n", 1),
            # A hemisphere that is not N/S/E/W.
            (
                "HD|L1|W1|MG|FXO|2015-03-01|||\n"
                "LO|L1|1|41|45|0.0000|Q|87|0|0.0000|W|200.0|90.0|site\n",
                2,
            ),
            # A longitude off the globe.
            (
                "HD|L1|W1|MG|FXO|2015-03-01|||\n"
                "EN|L1|Someone\n"
                "LO|L1|1|41|45|0.0000|N|181|0|0.0000|W|200.0|90.0|site\n",
                3,
            ),
            # Non-finite seconds: a location every link length would
            # inherit as NaN or infinity.
            (
                "HD|L1|W1|MG|FXO|2015-03-01|||\n"
                "LO|L1|1|41|45|nan|N|87|0|0.0000|W|200.0|90.0|site\n",
                2,
            ),
            (
                "HD|L1|W1|MG|FXO|2015-03-01|||\n"
                "LO|L1|1|41|45|0.0000|N|87|0|inf|W|200.0|90.0|site\n",
                2,
            ),
        ],
    )
    def test_malformed_line_names_its_line(self, text, line):
        with pytest.raises(dumpio.DumpFormatError, match=f"^line {line}: "):
            dumpio.loads(text)

    @pytest.mark.parametrize(
        "path_line",
        [
            # A path to a location the license never defines.
            "PA|L1|1|1|7",
            # ULS path numbers start at 1.
            "PA|L1|0|1|2",
            # A path that loops back to its own location.
            "PA|L1|1|2|2",
        ],
    )
    def test_invalid_license_names_its_header_line(self, path_line):
        lines = dumpio.dumps([make_license("L0"), make_license("L1")]).splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("HD|L1|"))
        pa = next(i for i, line in enumerate(lines) if line.startswith("PA|L1|"))
        lines[pa] = path_line
        with pytest.raises(
            dumpio.DumpFormatError, match=f"^line {header + 1}: license 'L1': "
        ):
            dumpio.loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            # A frequency for a path the license never defines.
            (lambda lines, pa: lines.append("FR|L1|9|6000.0"), "FR for path 9"),
            # A second path 1 that would replace the first.
            (lambda lines, pa: lines.insert(pa + 1, "PA|L1|1|2|1"), "path 1 defined twice"),
            # A second location 1 that would replace the first.
            (
                lambda lines, pa: lines.insert(
                    pa, "LO|L1|1|41|0|0.0000|N|87|0|0.0000|W|200.0|90.0|dup"
                ),
                "location 1 defined twice",
            ),
        ],
        ids=["orphan-frequency", "repeated-path", "repeated-location"],
    )
    def test_inconsistent_group_names_its_line(self, edit, message):
        lines = dumpio.dumps([make_license("L0"), make_license("L1")]).splitlines()
        pa = next(i for i, line in enumerate(lines) if line.startswith("PA|L1|"))
        edit(lines, pa)
        bad = next(
            i + 1
            for i, line in enumerate(lines)
            if line in ("FR|L1|9|6000.0", "PA|L1|1|2|1") or line.endswith("|dup")
        )
        with pytest.raises(dumpio.DumpFormatError, match=f"^line {bad}: {message}"):
            dumpio.loads("\n".join(lines) + "\n")

    def test_blank_lines_ignored(self):
        text = "\n" + dumpio.dumps([make_license()]) + "\n\n"
        assert len(dumpio.loads(text)) == 1


@st.composite
def licenses(draw):
    index = draw(st.integers(0, 999))
    n_points = draw(st.integers(2, 4))
    points = []
    for point_index in range(n_points):
        lat = draw(st.floats(min_value=-80.0, max_value=80.0))
        lon = draw(st.floats(min_value=-179.0, max_value=179.0))
        points.append((round(lat, 5), round(lon, 5)))
    freqs = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from([5945.2, 6063.8, 10995.0, 11485.0, 17765.0]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
    )
    return make_license(
        f"H{index:03d}",
        points=tuple(points),
        frequencies=freqs,
        grant=dt.date(2010 + index % 10, 1 + index % 12, 1 + index % 28),
    )


class TestPropertyRoundTrip:
    @given(licenses())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_preserves_structure(self, lic):
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert back.license_id == lic.license_id
        assert len(back.locations) == len(lic.locations)
        assert [p.frequencies_mhz for p in back.paths] == [
            p.frequencies_mhz for p in lic.paths
        ]
        for number, location in lic.locations.items():
            parsed = back.locations[number].point
            assert parsed.latitude == pytest.approx(location.point.latitude, abs=2e-7)
            assert parsed.longitude == pytest.approx(location.point.longitude, abs=2e-7)


#: A valid four-license dump for the mutation property.
_VALID_DUMP = dumpio.dumps(
    [
        make_license(
            f"M{index}",
            points=((41.75, -88.18), (41.6, -87.8), (41.4 + index / 10, -87.1)),
            frequencies=(6063.8, 11225.0)[: 1 + index % 2],
            cancellation=dt.date(2019, 9, 30) if index == 3 else None,
        )
        for index in range(4)
    ]
)

#: Characters a mutation may write: the format's separators and the
#: characters its fields are made of.
_MUTATION_CHARS = "|\n0123456789.-:NSEWHDLOPAFRX Mx"


@st.composite
def mutated_dumps(draw):
    text = _VALID_DUMP
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        char = draw(st.sampled_from(_MUTATION_CHARS))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "replace":
            text = text[:at] + char + text[at + 1 :]
        else:
            text = text[:at] + text[at + 1 :]
    return text


class TestMutatedDumps:
    @given(mutated_dumps())
    @settings(max_examples=300, deadline=None)
    def test_mutated_dump_loads_or_raises_format_error(self, text):
        # Outside input: a structured DumpFormatError, never a bare
        # ValueError, KeyError or IndexError.
        try:
            licenses = dumpio.loads(text)
        except dumpio.DumpFormatError:
            return
        assert all(isinstance(lic, License) for lic in licenses)
