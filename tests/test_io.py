from __future__ import annotations

import json

import networkx as nx
import pytest

from snarkcrit.criticality import classify, is_snark
from snarkcrit.graph_io import (
    CSV_COLUMNS,
    Graph6EncodeError,
    Graph6ParseError,
    blanusa,
    encode_graph6,
    make_named,
    parse_graph6,
    petersen,
    read_graph6_file,
    write_records,
)
from snarkcrit.multigraph import DANGLING, GraphError, build_graph
from snarkcrit.structure import girth
from isomorphism import are_isomorphic
from strategies import random_cubic_graphs


class TestParseGraph6:
    def test_petersen_round_trip(self, petersen_graph):
        line = encode_graph6(petersen_graph)
        back = parse_graph6(line)
        assert are_isomorphic(back, petersen_graph)

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert g.order == 0 and g.edges == ()

    def test_order_one(self):
        assert encode_graph6(build_graph(1, [])) == "@"
        assert parse_graph6("@").order == 1

    def test_header_accepted(self, petersen_graph):
        line = ">>graph6<<" + encode_graph6(petersen_graph)
        assert are_isomorphic(parse_graph6(line), petersen_graph)

    def test_corrupted_final_byte_reports_offset(self, petersen_graph):
        line = encode_graph6(petersen_graph)
        bad = line[:-1] + "\x7f"  # above the graph6 byte range
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(bad)
        assert exc.value.offset == len(bad) - 1

    def test_truncated_input(self, petersen_graph):
        line = encode_graph6(petersen_graph)
        with pytest.raises(Graph6ParseError):
            parse_graph6(line[:-1])

    def test_trailing_garbage(self, petersen_graph):
        line = encode_graph6(petersen_graph)
        with pytest.raises(Graph6ParseError):
            parse_graph6(line + "??")

    @pytest.mark.parametrize(
        "line, offset",
        [
            (">>graph6<<C~~", 12),  # trailing byte
            (">>graph6<<\x7f", 10),  # order byte out of range
            (">>graph6<<", 10),  # no order byte
            (">>graph6<<" + encode_graph6(petersen())[:-1] + "\x7f", 18),
        ],
    )
    def test_offsets_count_the_header(self, line, offset):
        # the offset points into the line as given, header and all
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(line)
        assert exc.value.offset == offset
        assert f"byte {offset}:" in str(exc.value)

    def test_non_ascii_character_rejected(self):
        # not read as "?" (the graph6 value 0), which would give an edgeless graph
        for line in ("A\u00e9", "A\udcff"):
            with pytest.raises(Graph6ParseError) as exc:
                parse_graph6(line)
            assert exc.value.offset == 1

    def test_nonzero_padding_rejected(self):
        # order 3, no edges: body byte must be exactly 63 ('?')
        with pytest.raises(Graph6ParseError):
            parse_graph6("B@")

    def test_long_order_form(self):
        # orders above 62 use the 4-byte header; check against networkx
        ring = build_graph(70, [(i, (i + 1) % 70) for i in range(70)])
        line = encode_graph6(ring)
        assert line.startswith("~")
        back = parse_graph6(line)
        assert back.order == 70
        assert {frozenset(e.real_endpoints()) for e in back.edges} == {
            frozenset(e.real_endpoints()) for e in ring.edges
        }
        ref = nx.from_graph6_bytes(line.encode())
        assert ref.number_of_nodes() == 70 and ref.number_of_edges() == 70

    def test_agrees_with_reference_decoder(self):
        for g in random_cubic_graphs(25, (4, 6, 8, 10, 12), seed=5):
            line = encode_graph6(g)
            ours = parse_graph6(line)
            ref = nx.from_graph6_bytes(line.encode())
            ours_edges = {frozenset(e.real_endpoints()) for e in ours.edges}
            ref_edges = {frozenset(e) for e in ref.edges()}
            assert ours_edges == ref_edges

    def test_agrees_with_reference_encoder(self):
        for g in random_cubic_graphs(25, (4, 6, 8, 10), seed=6):
            simple = nx.Graph()
            simple.add_nodes_from(sorted(g.vertices))
            simple.add_edges_from(
                tuple(e.real_endpoints()) for e in g.edges
            )
            ref = nx.to_graph6_bytes(simple, header=False).strip().decode()
            assert encode_graph6(g) == ref


class TestEncodeGraph6:
    def test_rejects_multigraphs(self, theta_graph, dumbbell_graph):
        with pytest.raises(Graph6EncodeError):
            encode_graph6(theta_graph)
        with pytest.raises(Graph6EncodeError):
            encode_graph6(dumbbell_graph)

    def test_rejects_dangling(self):
        g = build_graph(1, [(0, DANGLING)])
        with pytest.raises(Graph6EncodeError):
            encode_graph6(g)

    def test_round_trip_random_simple_cubic(self):
        for g in random_cubic_graphs(100, (4, 6, 8, 10, 12, 14, 16), seed=9):
            back = parse_graph6(encode_graph6(g))
            ours = {frozenset(e.real_endpoints()) for e in g.edges}
            theirs = {frozenset(e.real_endpoints()) for e in back.edges}
            assert ours == theirs  # label-preserving, hence isomorphic


class TestCorpusFile:
    def test_read_corpus(self, corpus_path):
        entries = read_graph6_file(corpus_path)
        assert len(entries) == 8
        assert [e.graph.order for e in entries] == [10, 18, 18, 20, 26, 26, 26, 28]
        assert entries[0].line_number == 1
        assert all(e.graph.is_cubic and e.graph.is_connected for e in entries)

    def test_first_entry_is_petersen(self, corpus_path):
        entries = read_graph6_file(corpus_path)
        assert are_isomorphic(entries[0].graph, petersen())

    def test_parse_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text(encode_graph6(petersen()) + "\n@@@broken\n")
        with pytest.raises(Graph6ParseError) as exc:
            read_graph6_file(bad)
        assert exc.value.line_number == 2

    def test_byte_outside_utf8_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"A\xff\n")
        with pytest.raises(Graph6ParseError) as exc:
            read_graph6_file(bad)
        assert (exc.value.line_number, exc.value.offset) == (1, 1)
        assert exc.value.line == "A\\xff"


class TestNamedGraphs:
    def test_dumbbell(self):
        g = make_named("dumbbell")
        assert g.order == 2 and len(g.edges) == 3
        assert len([e for e in g.edges if e.is_loop]) == 2

    def test_petersen(self):
        g = make_named("petersen")
        assert g.order == 10 and len(g.edges) == 15
        assert girth(g) == 5

    def test_flower5(self):
        g = make_named("flower(5)")
        assert g.order == 20 and len(g.edges) == 30
        assert is_snark(g)
        assert make_named("flower5").order == 20

    def test_flower_parameter_validation(self):
        for bad in ("flower(4)", "flower(3)", "flower(6)"):
            with pytest.raises(GraphError):
                make_named(bad)

    def test_blanusa_pair(self):
        b1, b2 = blanusa(1), blanusa(2)
        assert b1.order == b2.order == 18
        assert is_snark(b1) and is_snark(b2)
        assert not are_isomorphic(b1, b2)

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            make_named("heawood")

    def test_all_named_cubic(self):
        for name in ("dumbbell", "petersen", "theta", "k4", "blanusa1", "blanusa2",
                     "flower5", "flower7"):
            assert make_named(name).is_cubic


class TestWriteRecords:
    def test_empty_csv_is_header_only(self):
        out = write_records([], "csv").decode()
        assert out == ",".join(CSV_COLUMNS) + "\n"

    def test_petersen_row(self, petersen_graph):
        record = classify(petersen_graph, graph_index=1)
        out = write_records([record], "csv").decode()
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["is_snark"] == "true"
        assert cells["is_bicritical"] == "true"
        assert cells["girth"] == "5"

    def test_rows_in_input_order(self, petersen_graph, k4):
        records = [classify(k4, graph_index=5), classify(petersen_graph, graph_index=2)]
        out = write_records(records, "csv").decode().strip().split("\n")
        assert out[1].startswith("5,") and out[2].startswith("2,")

    def test_none_cells_empty(self, k4):
        record = classify(k4, graph_index=1)
        row = write_records([record], "csv").decode().strip().split("\n")[1]
        cells = row.split(",")
        named = dict(zip(CSV_COLUMNS, cells))
        assert named["is_critical"] == ""
        assert named["cyclic_edge_connectivity"] == ""

    def test_jsonl(self, petersen_graph):
        record = classify(petersen_graph, graph_index=1)
        lines = write_records([record], "jsonl").decode().strip().split("\n")
        obj = json.loads(lines[0])
        assert list(obj) == list(CSV_COLUMNS)
        assert obj["is_snark"] is True
        assert obj["cyclic_edge_connectivity"] == 5

    def test_jsonl_empty(self):
        assert write_records([], "jsonl") == b""
