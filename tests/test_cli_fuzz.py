"""Fuzzing of the `fixed-space` command's JSON input, in process.

Whatever the document holds, the command ends with exit code 0, 2 or 3,
and the only exception that may leave ``main`` is argparse's
``SystemExit``. Example generation is derandomized, so each run draws the
same documents.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from weylppav import Matrix, embed_block_diag, standard_form  # noqa: E402
from weylppav.cli import main  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

scalars = st.one_of(st.none(), st.booleans(), st.integers(-4, 4),
                    st.integers(-10 ** 40, 10 ** 40), st.floats(),
                    st.text(max_size=3))
# Mostly small ints, so near-square integer matrices are common.
entries = st.one_of(st.integers(-2, 2), st.integers(-2, 2), scalars)
# Ragged, non-square and scalar rows; whole matrices that are not lists.
matrices = st.one_of(
    scalars,
    st.lists(st.one_of(st.lists(entries, max_size=6), scalars), max_size=6),
    st.dictionaries(st.text(max_size=2), scalars, max_size=2),
)
sizes = st.one_of(st.integers(-3, 20), st.integers(-10 ** 40, 10 ** 40), scalars)


def _valid_matrices(n):
    """Generators that parse: the identity, J (exit 3) and an embedded shear."""
    shear = Matrix([[1 if i == j or j == i + 1 else 0 for j in range(n)] for i in range(n)])
    return [Matrix.identity(2 * n), standard_form(n), embed_block_diag(shear).m]


@st.composite
def near_valid(draw):
    """Right-sized documents, sometimes with one entry replaced."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        rows = [list(r) for r in draw(st.sampled_from(_valid_matrices(n))).rows()]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
            rows[i][j] = draw(entries)
        gens.append({"matrix": rows})
    return {"n": n, "generators": gens}


generator_lists = st.one_of(
    scalars,
    st.lists(st.one_of(st.fixed_dictionaries({"matrix": matrices}), scalars,
                       st.dictionaries(st.text(max_size=2), scalars, max_size=2)),
             max_size=3),
)
documents = st.one_of(
    near_valid(),
    st.fixed_dictionaries({"n": sizes, "generators": generator_lists}),
    st.fixed_dictionaries({}, optional={"n": sizes, "generators": generator_lists}),
    scalars,
    st.lists(scalars, max_size=3),
)


def run_fixed_space(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["fixed-space", str(path)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert set(json.loads(out)) == {"n", "dimension", "particular", "basis"}
    else:
        assert out == "" and err.startswith("error: "), err


@FUZZ
@given(documents)
def test_fixed_space_input_exits_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fixed-space-fuzz.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(*run_fixed_space(path))


@pytest.mark.parametrize("text", [
    '{"n": ' + "9" * 5000 + "}",  # over the interpreter's int-digit limit
    '{"n": NaN, "generators": []}',
    '{"n": 1, "generators": [{"matrix": [[Infinity, 0], [0, 1]]}]}',
    '{"n": 1, "generators": [{"matrix": [[1, 0], [0, 1]]}], "n": 2}',
    "",
])
def test_fixed_space_raw_text_exits_cleanly(tmp_path, text):
    path = tmp_path / "gens.json"
    path.write_text(text)
    code, out, err = run_fixed_space(path)
    assert code == 2
    assert_clean_exit(code, out, err)
