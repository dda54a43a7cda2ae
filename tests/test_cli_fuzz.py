"""Fuzz the CLI's argv: whatever its options hold, `cli.run` returns an exit
code in {0, 1, 2} and one line of strict JSON, and a refusal names its kind.

Draws are bounded so that every answer is cheap: Gram entries at most 12,
rank at most 3, genus at most 2 in the surfaces built here, maximum energy
at most 6.  `accept` runs the whole acceptance suite and is left out, apart
from a refusal that returns before any criterion runs.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecft.cli import run
from latticecft.lattices import E8_GRAM

from test_cli import DISK, TORUS, refuse_constant

GRAMS = ("[[2]]", "[[4]]", "[[12]]", "[[2,1],[1,2]]", "[[2,0],[0,8]]", "[[4,2],[2,4]]",
         "[[12,6],[6,12]]", "[[2,-1,0],[-1,2,-1],[0,-1,2]]", "[[2,0,0],[0,2,0],[0,0,2]]")
IDS = st.sampled_from(["c0", "c1", "c2"])

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
scalars = st.one_of(st.none(), st.booleans(), st.integers(-12, 12), st.floats(-12.5, 12.5),
                    NON_FINITE, st.text(max_size=4))
json_values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4) | IDS, inner, max_size=3)),
    max_leaves=10)
# what a user could type for any option: numbers, words, any JSON
wild = st.one_of(st.integers(-12, 12).map(str), st.floats().map(repr), st.text(max_size=8),
                 st.sampled_from(["true", "null", "NaN", "Infinity", "-Infinity", "1e400"]),
                 json_values.map(json.dumps))


def mostly(plausible, other, one_in=8):
    """plausible, or once in one_in draws other."""
    return st.integers(0, one_in - 1).flatmap(lambda k: other if k == 0 else plausible)


gram_rows = st.integers(1, 3).flatmap(lambda r: st.lists(
    st.lists(st.integers(-12, 12), min_size=r, max_size=r), min_size=r, max_size=r))
lattices = st.sampled_from(GRAMS) | gram_rows.map(json.dumps)
circles = st.fixed_dictionaries({"id": mostly(IDS, scalars),
                                 "orientation": st.sampled_from(["out", "in"])})
components = st.fixed_dictionaries({"genus": mostly(st.integers(0, 2), scalars),
                                    "boundaries": st.lists(circles, max_size=3)})
surface_data = st.fixed_dictionaries({"components": st.lists(components, min_size=1, max_size=2)})
surfaces = surface_data.map(json.dumps)
coordinates = mostly(st.integers(-3, 12), scalars)
labels = st.dictionaries(IDS, st.lists(coordinates, min_size=1, max_size=3) | coordinates,
                         max_size=3).map(json.dumps)
pieces = st.lists(surface_data, max_size=2).map(json.dumps)
matchings = st.lists(st.lists(IDS, min_size=2, max_size=2), max_size=3).map(json.dumps)
parts = mostly(st.floats(-1, 1), NON_FINITE, one_in=4)
im_parts = mostly(st.floats(0.2, 3), st.floats(-0.5, 0.2) | NON_FINITE, one_in=4)
taus = st.one_of(
    st.fixed_dictionaries({"re": parts, "im": im_parts}),
    st.tuples(im_parts, im_parts).map(
        lambda d: {"re": [[0, 0], [0, 0]], "im": [[d[0], 0], [0, d[1]]]})).map(json.dumps)
zs = (st.fixed_dictionaries({"re": parts, "im": parts})
      | st.lists(parts, min_size=1, max_size=2)).map(json.dumps)
chars = st.sampled_from(["0,0", '"1/2",0', '0,"1/2"', '"1/2","1/2"', "[0,0],[0,0]"]) | st.tuples(
    json_values, json_values).map(lambda pair: ",".join(map(json.dumps, pair)))
tols = st.floats(allow_nan=True, allow_infinity=True).map(repr)
FLAG = None


def command(head, *options):
    """head, then each (name, plausible value, required) option: at most one
    of them gets a wild value, the others a plausible one or, when
    optional, none.  A FLAG option is given or not."""
    options += (("--seed", st.integers(0, 9).map(str), False),)

    def build(wild_at):
        parts = []
        for j, (name, plausible, required) in enumerate(options):
            if plausible is FLAG:
                parts.append(st.sampled_from([[], [name]]))
                continue
            given_ = (wild if j == wild_at else plausible).map(lambda v, name=name: [name, v])
            parts.append(given_ if required or j == wild_at else st.just([]) | given_)
        return st.tuples(*parts).map(lambda opts: [*head, *(x for o in opts for x in o)])

    return st.integers(-1, len(options) - 1).flatmap(build)


argvs = st.one_of(
    command(["disc"], ("--lattice", lattices, True)),
    command(["blocks"], ("--surface", surfaces, True), ("--lattice", lattices, False),
            ("--labels", labels, False)),
    command(["factorize"], ("--surface", surfaces, True), ("--pieces", pieces, True),
            ("--matching", matchings, True), ("--lattice", lattices, False),
            ("--labels", labels, False), ("--terms", FLAG, False)),
    command(["modular"], ("--lattice", lattices, True)),
    command(["verlinde"], ("--surface", surfaces, True), ("--lattice", lattices, False),
            ("--labels", labels, False)),
    command(["theta"], ("--tau", taus, True), ("--z", zs, True),
            ("--char", chars, False), ("--tol", tols, False)),
    command(["fock", "character"], ("--lattice", lattices, True),
            ("--phi", st.sampled_from(["0", "1", "1,0", "0,1", "2"]), False),
            ("--max-energy", st.integers(-1, 6).map(str), False)),
    command(["heisenberg"], ("--lattice", lattices, True),
            ("--genus", st.integers(-1, 2).map(str), False),
            ("--chi", st.integers(-3, 3).map(str), False)),
)


def surface_of_genus(genus: str) -> str:
    return f'{{"components":[{{"genus":{genus},"boundaries":[]}}]}}'


@given(argvs)
@settings(max_examples=150, deadline=None)
@example(["blocks", "--surface", TORUS, "--labels", "[1,2]"])
@example(["blocks", "--surface", TORUS, "--labels", '"x"'])
@example(["blocks", "--surface", TORUS, "--labels", "5"])
@example(["blocks", "--surface", '{"components":[5]}'])
@example(["blocks", "--surface", DISK, "--lattice", "[[4]]", "--labels", '{"c0":[1.7]}'])
@example(["blocks", "--surface", DISK, "--lattice", "[[4]]", "--labels", '{"c0":[true]}'])
@example(["blocks", "--surface", DISK, "--lattice", "[[4]]", "--labels", '{"c0":true}'])
@example(["blocks", "--surface", surface_of_genus("1.5")])
@example(["blocks", "--surface", surface_of_genus('"2"')])
@example(["blocks", "--surface", surface_of_genus("true")])
@example(["accept", "--tolerance", "nan"])
@example(["theta", "--tau", '{"im": 1}', "--z", "0", "--tol", "nan"])
@example(["theta", "--tau", '{"im": Infinity}', "--z", "0"])
@example(["theta", "--tau", '{"im": 1}', "--z", "NaN"])
@example(["theta", "--tau", '{"im": 1}', "--z", "0", "--char", "Infinity,0"])
@example(["theta", "--tau", '{"im": 1}', "--z", "1" + "0" * 400])
@example(["disc", "--lattice", "[[Infinity]]"])
@example(["theta", "--tau", json.dumps({"im": E8_GRAM}), "--z", json.dumps([0] * 8)])
@example(["fock", "character", "--lattice", json.dumps(E8_GRAM), "--phi", "0",
          "--max-energy", "2"])
def test_every_argv_gets_one_json_line(argv):
    code, payload, _ = run(argv)
    assert code in (0, 1, 2)
    (line,) = payload.splitlines()
    report = json.loads(line, parse_constant=refuse_constant)
    if code == 2:
        assert report.keys() == {"format", "command", "error_kind", "detail"}
