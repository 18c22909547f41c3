import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrsim
import workload_reference
from conftest import scattered_workloads, workloads
from rrsim import (
    Workload,
    WorkloadError,
    generate_workload,
    parse_workload,
    serialize_workload,
    workload,
)
from rrsim.workload import MAX_DIGITS, _parse_rows, check_process, integer, quoted


class TestParse:
    def test_five_process_csv(self):
        text = "id,burst,priority\n1,25,3\n2,60,1\n3,12,2\n4,43,1\n5,5,1"
        w = parse_workload(text)
        assert w.bursts == (25, 60, 12, 43, 5)
        assert w.priorities == (3, 1, 2, 1, 1)
        assert w.pids == (1, 2, 3, 4, 5)

    def test_single_process(self):
        w = parse_workload("id,burst,priority\n1,7,1")
        assert len(w) == 1
        assert (w.pids, w.bursts, w.priorities) == ((1,), (7,), (1,))

    def test_crlf_endings(self):
        w = parse_workload("id,burst,priority\r\n1,7,1\r\n2,3,2\r\n")
        assert w.bursts == (7, 3)

    def test_zero_burst_rejected(self):
        with pytest.raises(WorkloadError, match="row 2.*non-positive burst"):
            parse_workload("id,burst,priority\n1,0,1")

    def test_zero_priority_rejected(self):
        with pytest.raises(WorkloadError, match="row 3"):
            parse_workload("id,burst,priority\n1,4,1\n2,4,0")

    def test_duplicate_id_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate process id 1"):
            parse_workload("id,burst,priority\n1,4,1\n1,5,1")

    def test_non_integer_field(self):
        with pytest.raises(WorkloadError, match="row 2.*burst"):
            parse_workload("id,burst,priority\n1,x,1")

    @pytest.mark.parametrize("value", ["1_0", "+3", "\u0661", "\uff12"],
                             ids=["underscore", "plus", "arabic-indic", "fullwidth"])
    def test_only_ascii_digits(self, value):
        message = re.escape(f"row 2: burst is not an integer: '{value}'")
        with pytest.raises(WorkloadError, match=message):
            parse_workload(f"id,burst,priority\n1,{value},1")

    def test_wrong_field_count(self):
        with pytest.raises(WorkloadError, match="row 2"):
            parse_workload("id,burst,priority\n1,4")

    def test_bad_header(self):
        with pytest.raises(WorkloadError, match="header"):
            parse_workload("pid,bt,prio\n1,4,1")

    def test_long_bad_header_is_cut(self):
        header = ",".join(["burst"] * 150)
        with pytest.raises(WorkloadError) as exc:
            parse_workload(f"{header}\n1,4,1")
        assert str(exc.value) == f"bad header '{header[:39]}…; expected 'id,burst,priority'"

    def test_long_field_is_cut(self):
        with pytest.raises(WorkloadError) as exc:
            parse_workload("id,burst,priority\n1," + "9" * 700 + "x,1")
        assert str(exc.value) == "row 2: burst is not an integer: '" + "9" * 39 + "…"

    def test_missing_data_rows(self):
        with pytest.raises(WorkloadError, match="no data rows"):
            parse_workload("id,burst,priority\n")

    def test_zero_arrival_column_accepted(self):
        w = parse_workload("id,burst,priority,arrival\n1,4,1,0\n2,9,2,0")
        assert w.bursts == (4, 9)

    def test_nonzero_arrival_rejected(self):
        with pytest.raises(WorkloadError, match="row 3.*unsupported by the model"):
            parse_workload("id,burst,priority,arrival\n1,4,1,0\n2,9,2,5")

    @pytest.mark.parametrize("text, message", [
        ("id,burst,priority\n1,4,1\n\n\n2,x,1", "row 5: burst is not an integer: 'x'"),
        ("\n \nid,burst,priority\n1,0,1", "row 4: non-positive burst 0 (P1)"),
        ("id,burst,priority\n\n1,4\n", "row 3: expected 3 fields, got 2"),
        ("id,burst,priority,arrival\n\n1,4,1,0\n,,,\n2,9,2,5",
         "row 5: nonzero arrival time 5 is unsupported"),
        ('id,burst,priority\n1,"4\n",1\n2,4,0', "row 4: priority must be >= 1"),
    ], ids=["blank-lines", "blank-before-header", "short-row", "blank-cells", "multi-line-field"])
    def test_error_names_the_line_past_blank_lines(self, text, message):
        with pytest.raises(WorkloadError, match=re.escape(message)):
            parse_workload(text)

    # str.splitlines() also breaks lines at these; the csv module does not,
    # and neither do the line numbers in errors
    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\x0c"],
                             ids=["next-line", "line-separator", "form-feed"])
    def test_only_csv_line_ends_end_a_row(self, char):
        assert parse_workload(f"id,burst,priority\n1,4{char},1\n2,5,1").bursts == (4, 5)
        with pytest.raises(WorkloadError, match=re.escape("row 2: expected 3 fields, got 5")):
            parse_workload(f"id,burst,priority\n1,4,1{char}2,5,1")
        with pytest.raises(WorkloadError, match=re.escape("row 3: non-positive burst 0 (P2)")):
            parse_workload(f"id,burst,priority\n1,4{char},1\n2,0,1")


# Cells the column-at-a-time check turns away, so that the row-wise path
# runs, and cells that make a row invalid.
_ODD_CELLS = ["", " ", " 3", "4 ", "\t5\x0c", "2\x85", "+2", "-0", "-3", "007", "1_0", "x",
              "\uff12", "\u0663"]
_HEADERS = ["id,burst,priority", "id,burst,priority,arrival"]
_ODD_HEADERS = [" ID , Burst,PRIORITY", "id,burst", "pid,burst,priority", ""]


@st.composite
def _workload_csvs(draw):
    """Workload CSV text: a header line, then rows that are mostly plain
    digits (pids from 1..20, so some repeat), with odd, short, long and blank
    rows mixed in, and one kind of line end."""
    header = draw(st.one_of(*[st.sampled_from(_HEADERS)] * 3, st.sampled_from(_ODD_HEADERS)))
    width = 4 if header.endswith("arrival") else 3
    plain = st.tuples(st.integers(1, 20), st.integers(1, 30), st.integers(1, 6),
                      st.sampled_from([0] * 5 + [2])).map(lambda r: ",".join(map(str, r[:width])))
    cell = st.one_of(st.integers(0, 30).map(str), st.sampled_from(_ODD_CELLS))
    odd = st.lists(cell, min_size=1, max_size=5).map(",".join)
    blank = st.sampled_from(["", " ", ",,,", " , ,"])
    rows = draw(st.lists(st.one_of(*[plain] * 12, odd, blank), min_size=1, max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))


class TestQuoted:
    """User text in an error message: its ``repr`` when that is at most 40
    characters long, else the first 40 characters of the ``repr`` and ``…``."""

    @pytest.mark.parametrize("text, shown", [
        ("", "''"),
        ("x" * 38, "'" + "x" * 38 + "'"),
        ("x" * 39, "'" + "x" * 39 + "…"),
        ("\0" * 12, "'" + "\\x00" * 9 + "\\x0…"),
    ], ids=["empty", "38", "39", "escapes"])
    def test_cut(self, text, shown):
        assert quoted(text) == shown


class TestParseReference:
    """``parse_workload`` checks plain-digit CSV a column at a time and
    anything else row by row; either way it gives what the row-wise
    reference gives: the same columns, or the same error text."""

    @settings(max_examples=200, deadline=None)
    @given(text=_workload_csvs())
    @example(text="id,burst,priority\n" + "1" * 5000 + ",1,1")  # past int()'s digit limit
    @example(text="id,burst,priority\n1,4,1\n\n")
    @example(text="\nid,burst,priority\n1,4,1")
    # plain digits that fail a column check: the error still names its row
    @example(text="id,burst,priority\n3,4,1\n0,5,1\n2,0,0")
    @example(text="id,burst,priority,arrival\n1,4,1,0\n2,5,1,7")
    @example(text="id,burst,priority\n2,4,1\n5,5,1\n2,5,1")
    # long text in an error is cut
    @example(text=",".join(["burst"] * 150) + "\n1,4,1")
    @example(text="id,burst,priority\n1," + "9" * 700 + "x,1")
    # so is a number of up to MAX_DIGITS digits, and the id that labels its row
    @example(text="id,burst,priority\n-" + "9" * 600 + ",1,1")
    @example(text="id,burst,priority\n" + "9" * 600 + ",-" + "9" * 600 + ",1")
    @example(text="id,burst,priority\n" + "9" * 600 + ",1,-" + "9" * 600)
    @example(text="id,burst,priority,arrival\n1,4,1," + "9" * 600)
    @example(text="id,burst,priority\n" + "9" * 600 + ",1,1\n" + "9" * 600 + ",2,1")
    def test_matches_row_wise_reference(self, text):
        expected = workload_reference.parse(text)
        try:
            w = parse_workload(text)
        except WorkloadError as exc:
            assert str(exc) == expected
        else:
            assert (w.pids, w.bursts, w.priorities) == expected
            assert all(type(x) is int for column in expected for x in column)
            assert w == Workload(*expected)


class TestColumns:
    """A workload is its three int columns, built from any iterables."""

    @given(w=scattered_workloads())
    def test_rows_and_columns_agree(self, w):
        rows = list(zip(w.pids, w.bursts, w.priorities))
        assert Workload(*zip(*rows)) == w and len(w) == len(rows)
        same = Workload(list(w.pids), iter(w.bursts), (p for p in w.priorities))
        assert same == w and hash(same) == hash(w)
        assert list(map(type, (same.pids, same.bursts, same.priorities))) == [tuple] * 3

    # The first bad row's error, its fields checked in column order, comes
    # before a duplicate id, as when the rows are checked one at a time.
    @pytest.mark.parametrize("columns, message", [
        (((), (), ()), "workload must contain at least one process"),
        (((1, 2, 2), (3, 0, -1), (1, 1, 1)), "non-positive burst 0 (P2)"),
        (((1, 2), (3, 4), (1, -1)), "priority must be >= 1, got -1 (P2)"),
        (((0, 2), (3, 0), (1, 1)), "process id must be a positive integer, got 0"),
        (((1, 2, 1, 2), (3, 4, 5, 6), (1, 1, 1, 1)), "duplicate process id 1"),
    ], ids=["empty", "burst", "priority", "pid", "duplicate"])
    def test_from_columns_gives_the_row_wise_error(self, columns, message):
        with pytest.raises(WorkloadError, match=f"^{re.escape(message)}$"):
            Workload(*columns)

    def test_from_columns_of_unequal_length(self):
        with pytest.raises(WorkloadError, match="^pids, bursts and priorities differ in length$"):
            Workload((1, 2), (3, 4), (1,))


class TestInvariants:
    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError, match="at least one"):
            workload([])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(WorkloadError, match="^pids, bursts and priorities differ in length$"):
            workload([1, 2], [1])

    @pytest.mark.parametrize("burst,priority", [(0, 1), (-3, 1), (5, 0), (5, -1)])
    def test_bad_process_fields(self, burst, priority):
        with pytest.raises(WorkloadError) as row:
            check_process(1, burst, priority)
        with pytest.raises(WorkloadError, match=f"^{re.escape(str(row.value))}$"):
            Workload((1,), (burst,), (priority,))

    @given(workloads())
    def test_serialize_parse_round_trip(self, w):
        assert parse_workload(serialize_workload(w)) == w

    def test_serialize_emits_exact_header(self):
        text = serialize_workload(workload([7], [2]))
        assert text == "id,burst,priority\n1,7,2\n"


def _outcome(parse, text):
    """The columns ``parse`` gives for ``text``, or its error text."""
    try:
        w = parse(text)
    except WorkloadError as exc:
        return str(exc)
    return w.pids, w.bursts, w.priorities


class TestDigitBound:
    """No number of a workload has more than ``MAX_DIGITS`` digits, so any sum
    of them converts to text under Python's lowest digit limit, 640."""

    def test_below_the_lowest_python_limit(self):
        assert MAX_DIGITS < 640

    @pytest.mark.parametrize("text, value", [
        ("9" * MAX_DIGITS, 10**MAX_DIGITS - 1),
        (" -" + "9" * MAX_DIGITS + " ", 1 - 10**MAX_DIGITS),
        ("0" * 5000 + "7", 7),
        ("-" + "0" * 5000, 0),
    ])
    def test_integer_counts_digits_after_leading_zeros(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", ["9" * (MAX_DIGITS + 1), "-1" + "0" * MAX_DIGITS,
                                      "0" * 9 + "1" * 4400])
    def test_integer_refuses_more_digits(self, text):
        with pytest.raises(ValueError, match=f"^seed has more than {MAX_DIGITS} digits$"):
            integer(text, "seed")

    # "0"-padded: the row path and Python's own limit count the padding
    @pytest.mark.parametrize("digits", [MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1, 4301])
    @pytest.mark.parametrize("column", range(3), ids=["id", "burst", "priority"])
    @pytest.mark.parametrize("pad", [0, 700], ids=["plain", "padded"])
    @pytest.mark.parametrize("limit", ["default", "floor"])
    def test_parse_paths_agree(self, digits, column, pad, limit, request):
        if limit == "floor":
            request.getfixturevalue("int_digit_floor")
        row = ["2", "3", "1"]
        row[column] = "0" * pad + "9" * digits
        text = "id,burst,priority\n1,4,1\n" + ",".join(row) + "\n"
        outcome = _outcome(parse_workload, text)
        assert outcome == _outcome(_parse_rows, text) == workload_reference.parse(text)
        if digits <= MAX_DIGITS:
            assert outcome[column][1] == 10**digits - 1
        else:
            name = ("id", "burst", "priority")[column]
            assert outcome == f"row 3: {name} has more than {MAX_DIGITS} digits"

    @pytest.mark.parametrize("row, message", [
        ((10**MAX_DIGITS, 1, 1), f"process id has more than {MAX_DIGITS} digits"),
        ((1, 10**MAX_DIGITS, 1), f"burst has more than {MAX_DIGITS} digits (P1)"),
        ((1, 1, 10**MAX_DIGITS), f"priority has more than {MAX_DIGITS} digits (P1)"),
        ((1, 10**4400, 0), f"burst has more than {MAX_DIGITS} digits (P1)"),
    ], ids=["id", "burst", "priority", "burst-first"])
    def test_checks_agree(self, row, message):
        with pytest.raises(WorkloadError, match=f"^{re.escape(message)}$"):
            check_process(*row)
        with pytest.raises(WorkloadError, match=f"^{re.escape(message)}$"):
            Workload(*zip((2, 3, 1), row))
        assert Workload(*zip((2, 3, 1), (10**MAX_DIGITS - 1,) * 3)).pids[1] == 10**MAX_DIGITS - 1

    # below zero too the bound is named, not the number: str() of -10**5000
    # passes Python's default digit limit
    @pytest.mark.parametrize("value", [-10**MAX_DIGITS, -10**5000], ids=["bound", "5000"])
    @pytest.mark.parametrize("column, message", [
        (0, f"process id has more than {MAX_DIGITS} digits"),
        (1, f"burst has more than {MAX_DIGITS} digits (P1)"),
        (2, f"priority has more than {MAX_DIGITS} digits (P1)"),
    ], ids=["id", "burst", "priority"])
    def test_bounded_below(self, value, column, message):
        row = [1, 1, 1]
        row[column] = value
        for check in (check_process, lambda *r: Workload(*zip(r))):
            with pytest.raises(WorkloadError) as exc:
                check(*row)
            assert str(exc.value) == message and len(message) <= 160
        row[column] = 1 - 10**MAX_DIGITS  # MAX_DIGITS digits: shown, cut
        with pytest.raises(WorkloadError, match=r"-9{39}…"):
            check_process(*row)


class TestGenerate:
    def test_increasing_is_nondecreasing(self):
        w = generate_workload(5, "increasing", (5, 23), (1, 5), seed=7)
        assert list(w.bursts) == sorted(w.bursts)

    def test_degenerate_ranges(self):
        w = generate_workload(1, "random", (5, 5), (2, 2), seed=0)
        assert w.bursts == (5,)
        assert w.priorities == (2,)

    def test_decreasing_hundred(self):
        w = generate_workload(100, "decreasing", (1, 1000), (1, 10), seed=42)
        assert list(w.bursts) == sorted(w.bursts, reverse=True)
        assert all(1 <= b <= 1000 for b in w.bursts)
        assert all(1 <= p <= 10 for p in w.priorities)

    def test_same_seed_same_workload(self):
        a = generate_workload(20, "random", (1, 50), (1, 5), seed=123)
        b = generate_workload(20, "random", (1, 50), (1, 5), seed=123)
        assert a == b

    def test_different_seed_usually_differs(self):
        a = generate_workload(20, "random", (1, 50), (1, 5), seed=1)
        b = generate_workload(20, "random", (1, 50), (1, 5), seed=2)
        assert a != b

    @given(
        st.integers(1, 30),
        st.sampled_from(["increasing", "decreasing", "random"]),
        st.integers(1, 40),
        st.integers(0, 40),
        st.integers(0, 10_000),
    )
    def test_values_within_ranges(self, n, order, lo, span, seed):
        hi = lo + span
        w = generate_workload(n, order, (lo, hi), (1, 5), seed)
        assert len(w) == n
        assert all(lo <= b <= hi for b in w.bursts)
        assert all(1 <= p <= 5 for p in w.priorities)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, order="random", burst_range=(1, 5), priority_range=(1, 5)),
            dict(n=3, order="sorted", burst_range=(1, 5), priority_range=(1, 5)),
            dict(n=3, order="random", burst_range=(5, 1), priority_range=(1, 5)),
            dict(n=3, order="random", burst_range=(0, 5), priority_range=(1, 5)),
            dict(n=3, order="random", burst_range=(1, 5), priority_range=(2, 1)),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(WorkloadError):
            generate_workload(seed=0, **kwargs)


def test_every_public_name_resolves():
    """Each name in ``rrsim.__all__`` is defined, and ``import *`` takes them all."""
    for name in rrsim.__all__:
        assert getattr(rrsim, name) is not None
    namespace = {}
    exec("from rrsim import *", namespace)
    assert set(rrsim.__all__) <= set(namespace)
