"""The mutation sweep's operators, on a toy source, without running a sweep."""

import ast

import pytest

from mutate import mutants

TOY = '''
def parse(text):
    try:
        return int(text)
    except ValueError:
        return None
    except (TypeError, OverflowError) as exc:
        return str(exc)


class Box:
    def get(self, key):
        try:
            return self.items[key]
        except KeyError:
            pass
        finally:
            self.reads += 1
        try:
            return 0
        except:
            return 1
'''


def _handlers(source):
    return [h for h in ast.walk(ast.parse(source)) if isinstance(h, ast.ExceptHandler)]


def _handler_bodies(source):
    return [[ast.unparse(stmt) for stmt in h.body] for h in _handlers(source)]


def test_each_except_handler_gets_one_raise_mutant():
    original = _handler_bodies(TOY)
    lines = [h.lineno for h in _handlers(TOY)]
    got = [(name, line, what, src) for name, line, what, src in mutants(TOY, set()) if what.endswith("-> raise")]
    assert [(name, line) for name, line, _, _ in got] == [
        ("parse", lines[0]), ("parse", lines[1]), ("Box.get", lines[2]), ("Box.get", lines[3])]
    assert [what for _, _, what, _ in got] == [
        "except ValueError: body -> raise", "except (TypeError, OverflowError): body -> raise",
        "except KeyError: body -> raise", "except: body -> raise"]
    for k, (_, _, _, src) in enumerate(got):  # that handler's body alone is a bare raise
        assert _handler_bodies(src) == [["raise"] if i == k else body for i, body in enumerate(original)]


@pytest.mark.parametrize("names", [{"parse"}, {"Box.get"}])
def test_raise_mutant_lets_the_exception_through(names):
    (_, _, _, src), *_ = (m for m in mutants(TOY, names) if m[2].endswith("-> raise"))
    scope = {}
    exec(compile(src, "<mutant>", "exec"), scope)
    if names == {"parse"}:
        assert scope["parse"]("7") == 7
        with pytest.raises(ValueError):
            scope["parse"]("x")
    else:
        box = scope["Box"]()
        box.items, box.reads = {}, 0
        with pytest.raises(KeyError):
            box.get("k")
        assert box.reads == 1


FILTERS = '''
def kept(pairs):
    return [key for key, value in pairs
            if value
            if key != "skip"]
'''


def test_each_comprehension_filter_gets_one_negation():
    got = [(line, what, src) for _, line, what, src in mutants(FILTERS, {"kept"}) if what.startswith("negate filter")]
    assert [(line, what) for line, what, _ in got] == [
        (4, "negate filter if value"), (5, "negate filter if key != 'skip'")]
    pairs = [("a", 1), ("b", 0), ("skip", 1), ("c", 2)]
    results = []
    for _, _, src in got:
        scope = {}
        exec(compile(src, "<mutant>", "exec"), scope)
        results.append(scope["kept"](pairs))
    assert results == [["b"], ["skip"]]  # one filter negated, the other kept


RAISES = '''
def check(value, limit):
    if value is None:
        raise ValueError("no value")
    try:
        return limit // value
    except ZeroDivisionError:
        raise
    finally:
        if limit < 0:
            raise OverflowError(limit)
'''


def _simple_statements(source):
    """Each statement of source that holds no other, in walk order, as text."""
    return [ast.unparse(stmt) for stmt in ast.walk(ast.parse(source))
            if isinstance(stmt, ast.stmt) and not hasattr(stmt, "body")]


def test_each_raise_statement_gets_one_deletion():
    """One mutant per raise statement, that statement alone replaced by `None`."""
    got = [(line, what, src) for _, line, what, src in mutants(RAISES, {"check"}) if what.startswith("delete raise")]
    assert [(line, what) for line, what, _ in got] == [
        (4, "delete raise ValueError('no value')"), (8, "delete raise"), (11, "delete raise OverflowError(limit)")]
    original = _simple_statements(RAISES)
    raises = [k for k, stmt in enumerate(original) if stmt.startswith("raise")]
    assert len(raises) == len(got) == 3
    for k, (_, _, src) in zip(raises, got):
        assert _simple_statements(src) == [("None" if i == k else stmt) for i, stmt in enumerate(original)]
    scope = {}
    exec(compile(got[0][2], "<mutant>", "exec"), scope)
    with pytest.raises(TypeError):  # past the deleted raise, limit // None
        scope["check"](None, 3)


LOOPS = '''
def first_big(values, limit):
    for value in values:
        if value is None:
            continue
        while value > limit:
            value //= 2
            break
        if value == limit:
            break
    return value
'''


def test_each_continue_and_break_gets_one_deletion():
    """One mutant per continue or break, that statement alone replaced by `None`."""
    got = [(line, what, src) for _, line, what, src in mutants(LOOPS, {"first_big"})
           if what in ("delete continue", "delete break")]
    assert [(line, what) for line, what, _ in got] == [(5, "delete continue"), (8, "delete break"), (10, "delete break")]
    original = _simple_statements(LOOPS)
    jumps = [k for k, stmt in enumerate(original) if stmt in ("continue", "break")]
    assert len(jumps) == len(got) == 3
    for k, (_, _, src) in zip(jumps, got):
        assert _simple_statements(src) == [("None" if i == k else stmt) for i, stmt in enumerate(original)]
    scope = {}
    exec(compile(got[0][2], "<mutant>", "exec"), scope)
    with pytest.raises(TypeError):  # past the deleted continue, None > limit
        scope["first_big"]([None], 3)


STRIDES = '''
def columns(flat, n):
    return flat[0::3], flat[2::3], flat[::2], flat[1:n:4], flat[n::3], flat[1::1], flat[1:n]
'''


def test_each_constant_slice_start_with_a_step_gets_one_shift():
    """x[k::n] with constant k (0 if omitted) and constant n > 1 becomes x[(k + 1) % n::n];
    a start that is not a constant, a step of 1 and a slice without a step give no mutant."""
    got = [(line, what, src) for _, line, what, src in mutants(STRIDES, {"columns"}) if what.startswith("slice")]
    assert [(line, what) for line, what, _ in got] == [
        (3, "slice 0::3: start 0 -> 1"), (3, "slice 2::3: start 2 -> 0"),
        (3, "slice ::2: start 0 -> 1"), (3, "slice 1:n:4: start 1 -> 2")]
    flat = list(range(12))
    results = []
    for _, _, src in got:
        scope = {}
        exec(compile(src, "<mutant>", "exec"), scope)
        results.append(scope["columns"](flat, 9))
    base = ([0, 3, 6, 9], [2, 5, 8, 11], [0, 2, 4, 6, 8, 10], [1, 5], [9], list(range(1, 12)), list(range(1, 9)))
    shifted = [[1, 4, 7, 10], [0, 3, 6, 9], [1, 3, 5, 7, 9, 11], [2, 6]]
    for k, result in enumerate(results):  # that slice alone reads the next column
        assert result == tuple(shifted[k] if i == k else column for i, column in enumerate(base))
