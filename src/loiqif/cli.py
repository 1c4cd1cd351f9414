"""Command-line front end.

Commands: analyze, compare, multirun, loop, capacity, witness-check.
Exit codes: 0 success, 2 input error (parse/config/format), 3 enumeration
cap exceeded, 1 internal invariant failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import reprlib
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .analysis import (
    LoopAnalysis,
    StepPartitions,
    leaks_same_information,
    loop_analyze,
    lows_entropy,
    multi_run,
)
from .lang import (
    ACTIVE,
    PASSIVE,
    AttackerConfig,
    EnumerationCapError,
    Program,
    config_from_json,
    loi,
    parse,
)
from .measures import (
    Distribution,
    channel_capacity,
    distribution_from_json,
    format_real,
    measure_report,
    measure_report_to_json,
)
from .ordering import (
    InternalInvariantError,
    OrderWitness,
    Relation,
    equivalence_audit,
    order_result_to_json,
    verify_witness,
    witness_from_json,
)
from .partition import (
    Domain,
    Partition,
    QifError,
    block_count,
    partition_to_json,
)


# ---------------------------------------------------------------------------
# Shared plumbing

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise QifError(f"{path}: not UTF-8 text: {exc}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise QifError(f"{path}: JSON nested too deep") from None
    except json.JSONDecodeError as exc:
        raise QifError(f"{path}: not valid JSON: {exc}") from None
    except ValueError:   # an integer past the int-string digit limit
        raise QifError(f"{path}: not valid JSON: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits") from None


def _load_program(path: str) -> Program:
    return parse(_read_text(path))


def _load_config(args) -> AttackerConfig:
    cfg = config_from_json(_read_json(args.config))
    if args.budget is not None:
        cfg = replace(cfg, step_budget=args.budget)
    return cfg


def _load_pair(args) -> tuple[Partition, Partition]:
    """The partitions of ``program1`` and ``program2`` under one configuration."""
    p1 = _load_program(args.program1)
    p2 = _load_program(args.program2)
    cfg = _load_config(args)
    return loi(p1, cfg)[1], loi(p2, cfg)[1]


def _resolve_distribution(args, domain: Domain) -> tuple[Distribution, str]:
    if args.uniform:
        return Distribution.uniform(domain), "uniform"
    # Over the program's own domain object, every later domain check is
    # one identity test, not a walk over the atoms.
    mu = distribution_from_json(_read_json(args.dist), domain)
    if mu.domain is not domain:
        raise QifError(f"{args.dist}: distribution domain does not match the "
                       f"program's {domain.size} enumerated atoms")
    return mu, args.dist


def _shape_text(domain: Domain, n_blocks: int, sizes) -> str:
    """A partition too large to print: its block count and its (block size,
    number of blocks) pairs, largest size first."""
    shape = ",".join(f"{s}x{c}" for s, c in sorted(sizes, reverse=True))
    return f"<{n_blocks} blocks over {domain.size} atoms; sizes {shape}>"


def _partition_text(x: Partition) -> str:
    if x.domain.size <= 64:
        return str(x)
    return _shape_text(x.domain, block_count(x), Counter(Counter(x.labels).values()).items())


def _step_text(steps: StepPartitions, i: int) -> str:
    """``_partition_text(steps[i])``, read off the stored shape when the
    domain is too large to print, so no partition is built."""
    if steps.domain.size <= 64:
        return str(steps[i])
    return _shape_text(steps.domain, *steps.shape(i))


def _distribution_text(mu: Distribution) -> str:
    """The positive masses, or only their count past 16; a ``Fraction`` is
    built only for a mass it prints."""
    positive = len(mu.weights) - mu.weights.count(0)
    if positive > 16:
        return f"<{positive} atoms with positive mass>"
    atoms, weights = mu.domain.atoms, mu.weights
    support = itertools.compress(itertools.count(), weights)
    return "{" + ", ".join(f"{atoms[i]}: {Fraction(weights[i], mu.total)}" for i in support) + "}"


# A flat array (exact ints, or short rows of them) goes out in slices of
# _SLICE items, one join each, and _emit_json writes once _FLUSH characters
# are held.  Holding more saves no time: the held pieces and their joined
# copy are the writer's peak memory.
_SLICE = 256
_FLUSH = 1 << 14
# The longest row written by one format template: a longer row would be
# one piece holding its whole text.
_MAX_ROW = 16


def _item_texts(items, inner: str):
    """A function from a slice of ``items`` to their texts, when every item
    is an exact int or every item is a row of one length, 1 to ``_MAX_ROW``,
    of exact ints (``inner`` is the line break and indent before an item);
    else None.  A bool is not an exact int."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return lambda part: map(int.__repr__, part)
    if not kinds <= {list, tuple}:
        return None
    lengths = set(map(len, items))
    if len(lengths) != 1 or not 1 <= (k := lengths.pop()) <= _MAX_ROW:
        return None
    if set(map(type, itertools.chain.from_iterable(items))) != {int}:
        return None
    row_inner = inner + "  "
    template = "[" + row_inner + ("," + row_inner).join(["{}"] * k) + inner + "]"
    return lambda part: itertools.starmap(template.format, part)


def _write(value, inner: str, put) -> None:
    """Pass the text of ``value`` to ``put``, a piece at a time, as
    ``json.dumps(value, indent=2)`` writes it where ``inner``, a line break
    and indent, starts each of its own items."""
    if isinstance(value, (list, tuple)):
        head, sep = "[" + inner, "," + inner
        texts = _item_texts(value, inner)
        if texts is not None:
            for start in range(0, len(value), _SLICE):
                put(head + sep.join(texts(value[start:start + _SLICE])))
                head = sep
        else:
            deeper = inner + "  "
            for item in value:
                put(head)
                _write(item, deeper, put)
                head = sep
        put(inner[:-2] + "]" if value else "[]")
    elif isinstance(value, dict):
        head, sep, deeper = "{" + inner, "," + inner, inner + "  "
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(head + encode_basestring_ascii(key) + ": ")
            _write(item, deeper, put)
            head = sep
        put(inner[:-2] + "}" if value else "{}")
    elif isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None or isinstance(value, int):   # null, true, false or an int
        put(json.dumps(value))
    elif callable(value):
        _write(value(), inner, put)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(obj: dict) -> None:
    """Write ``obj`` exactly as ``json.dumps(obj, indent=2)`` prints it,
    plus a newline.

    The tree holds dicts with string keys, lists, tuples, strings, ints,
    bools and None; anything else raises ``TypeError``.  A value may also
    be a builder, a function of no arguments: it is written as the tree it
    returns, built only when ``_write`` reaches it, so a list of builders
    is built, written and dropped one item at a time.  ``_write`` passes
    each piece of text to ``put``: a flat array of exact ints, or of short
    rows of exact ints, ``_SLICE`` items per piece, everything else a token
    or so.  ``put`` holds the pieces and writes them once ``_FLUSH``
    characters are held, so the whole text is never held at once.  Trees
    may share a partition's cached tuples, but no container printed can
    hold itself.
    """
    write = sys.stdout.write
    held: list[str] = []
    size = 0

    def put(piece: str) -> None:
        nonlocal size
        held.append(piece)
        size += len(piece)
        if size >= _FLUSH:
            write("".join(held))
            held.clear()
            size = 0

    _write(obj, "\n  ", put)
    held.append("\n")
    write("".join(held))


# ---------------------------------------------------------------------------
# analyze

PASSIVE_LEAKAGE_NOTE = (
    "passive attacker: leakage is the conditional entropy of the partition "
    "given the low inputs, H(partition JOIN lows) - H(lows); it is not the "
    "plain partition entropy reported as H")


def cmd_analyze(args) -> int:
    if args.guesses < 1:
        raise QifError(f"--guesses must be >= 1, got {args.guesses}")
    program = _load_program(args.program)
    cfg = _load_config(args)
    domain, part = loi(program, cfg)
    mu, dist_id = _resolve_distribution(args, domain)
    m = measure_report(part, mu, max_tries=args.guesses)
    # part refines the lows' partition, so H(part | lows) = H(part) - H(lows)
    leak = m.entropy_bits - lows_entropy(domain, cfg, mu)
    warnings = [PASSIVE_LEAKAGE_NOTE] if cfg.mode == PASSIVE and cfg.low_vars else []
    if args.json:
        _emit_json({
            "program": args.program,
            "mode": cfg.mode,
            "distribution": dist_id,
            "partition": partition_to_json(part),
            "measures": measure_report_to_json(m),
            "leakage_bits": format_real(leak),
            "warnings": warnings,
        })
        return 0
    print(f"program: {args.program}")
    print(f"mode: {cfg.mode}")
    print(f"distribution: {dist_id}")
    print(f"partition: {_partition_text(part)}")
    print(f"blocks: {block_count(part)}")
    print(f"leakage (bits): {format_real(leak)}")
    print(f"entropy H (bits): {format_real(m.entropy_bits)}")
    for n, g in m.guess_prob.items():
        print(f"G_{n}: {g}")
    print(f"expected guesses NG: {m.expected_guesses}")
    print(f"min-entropy leakage ME (bits): {format_real(m.me_leakage_bits)}")
    print(f"guessing-entropy leakage GE: {m.ge_leakage}")
    print(f"ME' (bits): {format_real(m.me_prime_bits)}")
    print(f"GE': {m.ge_prime}")
    print(f"channel capacity (bits): {format_real(m.channel_capacity_bits)}")
    for w in warnings:
        print(f"warning: {w}")
    return 0


# ---------------------------------------------------------------------------
# compare

_RELATION_TEXT = {
    Relation.EQUAL: "equal (same partition)",
    Relation.COARSER_THAN: "coarser-than (P1 strictly below P2: P2 refines P1)",
    Relation.FINER_THAN: "finer-than (P2 strictly below P1: P1 refines P2)",
    Relation.INCOMPARABLE: "incomparable (neither refines the other)",
}


def _print_witness(label: str, w: OrderWitness) -> None:
    block = "{" + ",".join(str(a) for a in w.violated_block) + "}"
    print(f"witness refuting {label}: n={w.n}, split block {block}")
    print(f"  distribution: {_distribution_text(w.distribution)}")


def cmd_compare(args) -> int:
    if args.trials < 1:
        raise QifError(f"--trials must be >= 1, got {args.trials}")
    x, y = _load_pair(args)
    audit = equivalence_audit(x, y, trials=args.trials, seed=args.seed)
    result = audit.result
    if args.json:
        obj = order_result_to_json(result)
        obj["partition1"] = partition_to_json(x)
        obj["partition2"] = partition_to_json(y)
        obj["audit"] = {
            "samples": audit.samples,
            "violations": len(audit.violations),
            "x_ahead": audit.x_ahead,
            "y_ahead": audit.y_ahead,
        }
        _emit_json(obj)
    else:
        print(f"P1: {_partition_text(x)}")
        print(f"P2: {_partition_text(y)}")
        print(f"relation: {_RELATION_TEXT[result.relation]}")
        if result.witness_xy:
            _print_witness("P1 <= P2", result.witness_xy)
        if result.witness_yx:
            _print_witness("P2 <= P1", result.witness_yx)
        print(f"audit: {audit.samples} samples, {len(audit.violations)} violations"
              + (f", strict disagreements {audit.x_ahead} P1-ahead / "
                 f"{audit.y_ahead} P2-ahead"
                 if result.relation is Relation.INCOMPARABLE else ""))
    return 0


# ---------------------------------------------------------------------------
# multirun

def _parse_run_assignment(text: str) -> dict[str, int]:
    values: dict[str, int] = {}
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise QifError(f"bad --run assignment {reprlib.repr(text)}: expected name=value")
        if name in values:
            raise QifError(f"--run {reprlib.repr(text)} assigns {reprlib.repr(name)} twice")
        try:
            values[name] = int(value, 0)
            int.__repr__(values[name])   # raises past the int-string digit limit
        except ValueError:
            raise QifError(f"bad --run value in {reprlib.repr(text)}") from None
    return values


def cmd_multirun(args) -> int:
    if args.guesses < 1:
        raise QifError(f"--guesses must be >= 1, got {args.guesses}")
    program = _load_program(args.program)
    cfg = _load_config(args)
    if cfg.mode != ACTIVE:
        raise QifError("multirun models an attacker choosing low inputs; "
                       "the configuration must be in active mode")
    low_names = {n for n, _, _ in cfg.low_vars}
    runs = []
    for text in args.run:
        values = _parse_run_assignment(text)
        missing = low_names - set(values)
        if missing:
            raise QifError(f"--run {reprlib.repr(text)} leaves low variable(s) "
                           f"{sorted(missing)} unassigned")
        runs.append(values)

    parts = []
    for values in runs:
        domain, part = loi(program, cfg.with_low_values(values))
        parts.append(part)
    joined = multi_run(parts)
    same_info, pair = (True, None) if len(parts) == 1 else leaks_same_information(parts)
    mu, dist_id = _resolve_distribution(args, domain)
    report = measure_report(joined, mu, max_tries=args.guesses)

    if args.json:
        _emit_json({
            "program": args.program,
            "runs": [{"low_values": values, "partition": partition_to_json(part)}
                     for values, part in zip(runs, parts)],
            "join": partition_to_json(joined),
            "same_information": same_info,
            "witness_pair": pair,
            "distribution": dist_id,
            "measures": measure_report_to_json(report),
        })
    else:
        for values, part in zip(runs, parts):
            assigned = ",".join(f"{n}={v}" for n, v in sorted(values.items()))
            print(f"run [{assigned}]: {_partition_text(part)}")
        print(f"join: {_partition_text(joined)}")
        if pair:
            print(f"same information every run: no (runs {pair[0]} and {pair[1]} "
                  "are incomparable)")
        else:
            print("same information every run: yes")
        print(f"distribution: {dist_id}")
        print(f"entropy H of join (bits): {format_real(report.entropy_bits)}")
        for n, g in report.guess_prob.items():
            print(f"G_{n}: {g}")
        print(f"expected guesses NG: {report.expected_guesses}")
        print(f"channel capacity (bits): {format_real(report.channel_capacity_bits)}")
    return 0


# ---------------------------------------------------------------------------
# loop

def _loop_to_json(analysis: LoopAnalysis, direct: Partition, matches: bool) -> dict:
    """The ``loop --json`` object; each partition of the two chains is a
    builder for ``_emit_json``, so it is built and encoded in turn."""
    def builders(steps: StepPartitions) -> list:
        return [lambda i=i: partition_to_json(steps[i]) for i in range(len(steps))]

    return {
        "iteration_partitions": builders(analysis.w_partitions),
        "chain": builders(analysis.w_chain),
        "collision": partition_to_json(analysis.collision),
        "result": partition_to_json(analysis.result),
        "iterations_analyzed": analysis.iterations_analyzed,
        "stabilized": analysis.stabilized,
        "matches_direct_loi": matches,
        "direct_loi": partition_to_json(direct),
    }


def cmd_loop(args) -> int:
    program = _load_program(args.program)
    cfg = _load_config(args)
    analysis = loop_analyze(program, cfg, args.max_iter)
    _, direct = loi(program, cfg)
    matches = analysis.result == direct
    if args.json:
        _emit_json(_loop_to_json(analysis, direct, matches))
    else:
        for name, steps in (("W_", analysis.w_partitions), ("W_<=", analysis.w_chain)):
            for i in range(len(steps)):
                print(f"{name}{i}: {_step_text(steps, i)}")
        print(f"collision C: {_partition_text(analysis.collision)}")
        print(f"result: {_partition_text(analysis.result)}")
        print(f"iterations analyzed: {analysis.iterations_analyzed}"
              f" (stabilized: {'yes' if analysis.stabilized else 'no'})")
        print(f"direct loi: {_partition_text(direct)}")
        if analysis.stabilized:
            print(f"cross-check result == direct loi: {'pass' if matches else 'FAIL'}")
        else:
            print("cross-check result == direct loi: skipped "
                  "(chain not stabilized; raise --max-iter)")
    # a stabilized chain disagreeing with the direct partition is a bug;
    # an unstabilized one is just an under-approximation and was reported
    if analysis.stabilized and not matches:
        raise InternalInvariantError("loop analysis disagrees with direct loi")
    return 0


# ---------------------------------------------------------------------------
# capacity

def cmd_capacity(args) -> int:
    program = _load_program(args.program)
    cfg = _load_config(args)
    _, part = loi(program, cfg)
    if args.json:
        _emit_json({
            "program": args.program,
            "blocks": block_count(part),
            "channel_capacity_bits": format_real(channel_capacity(part)),
        })
    else:
        print(f"partition: {_partition_text(part)}")
        print(f"blocks: {block_count(part)}")
        print(f"channel capacity (bits): {format_real(channel_capacity(part))}")
    return 0


# ---------------------------------------------------------------------------
# witness-check

def cmd_witness_check(args) -> int:
    x, y = _load_pair(args)
    w = witness_from_json(_read_json(args.witness), x.domain)
    if args.direction == "xy":
        verified = verify_witness(w, x, y)
        claim = "P1 <= P2"
    else:
        verified = verify_witness(w, y, x)
        claim = "P2 <= P1"
    if args.json:
        _emit_json({"direction": args.direction, "claim_refuted": claim,
                    "verified": verified})
    else:
        print(f"witness against {claim}: "
              f"{'verified' if verified else 'NOT verified'}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p: argparse.ArgumentParser, with_dist: bool = False) -> None:
    p.add_argument("--config", required=True, metavar="FILE",
                   help="attacker configuration (JSON)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--budget", type=int, metavar="STEPS",
                   help="override the per-run statement budget")
    if with_dist:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--dist", metavar="FILE",
                           help="input distribution (JSON, exact rationals)")
        group.add_argument("--uniform", action="store_true",
                           help="uniform distribution over the enumerated atoms")
        p.add_argument("--guesses", type=int, default=4, metavar="N",
                       help="report G_1..G_N (default 4)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loiqif",
        description="Quantitative information flow analysis of while-programs "
                    "via partitions of the secret input space.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="all measures of one program")
    p.add_argument("program", help="program source file")
    _add_common(p, with_dist=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="order two programs' partitions")
    p.add_argument("program1")
    p.add_argument("program2")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="audit RNG seed")
    p.add_argument("--trials", type=int, default=200,
                   help="audit sample count (default 200)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("multirun", help="joined knowledge of several runs")
    p.add_argument("program")
    _add_common(p, with_dist=True)
    p.add_argument("--run", action="append", required=True, metavar="ASSIGN",
                   help='low values for one run, e.g. --run "l=5" (repeatable)')
    p.set_defaults(func=cmd_multirun)

    p = sub.add_parser("loop", help="per-iteration chain analysis of a loop")
    p.add_argument("program")
    _add_common(p)
    p.add_argument("--max-iter", type=int, default=None, metavar="N",
                   help="cap on analyzed iteration counts (default: one past "
                        "the largest count any run reaches)")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("capacity", help="channel capacity of a program")
    p.add_argument("program")
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("witness-check", help="re-verify an order witness")
    p.add_argument("program1")
    p.add_argument("program2")
    _add_common(p)
    p.add_argument("--witness", required=True, metavar="FILE",
                   help="witness JSON as emitted by compare --json")
    p.add_argument("--direction", choices=("xy", "yx"), default="xy",
                   help="which refinement claim the witness refutes "
                        "(xy: P1 <= P2)")
    p.set_defaults(func=cmd_witness_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except QifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
