"""Command-line surface.

Subcommands: encrypt, decrypt, keystream, qrn fetch|init|status,
material derive, test, avalanche, diffprob, bench.

Secrets travel through files or environment variables, never flag values.
Ciphertext, --report, pools, material and corpus manifests are written
through `files`, so each replaces its path only when complete.
Reports print as text; --report writes .json/.txt by extension (.csv too
for test and bench) before the text prints, and a reader that closes stdout
early does not change the exit code.  Whether material or sequences are
quantum is read from where they came from (pool header, material file
trailer, corpus manifest); no flag sets it.
Exit codes: 0 success, 2 usage, 3 I/O or transport, 4 pool exhausted,
5 verification/test failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import stat
import sys
from pathlib import Path

from . import analysis, bench, files, generate, qrn, vector
from .cipher import (
    BLOCK_BYTES,
    CipherParams,
    Origin,
    ROUND_PRESETS,
    blocks_needed,
    check_counter_span,
    xor_stream,
)
from .errors import IoFailure, ParamError, QreChachaError, VerificationFailure
from .randtests.battery import SUITES, battery_run
from .randtests.bits import bits_from_bytes


def _parse(convert, text: str, flag: str):
    """convert(text), reporting a malformed flag value as a usage error."""
    try:
        return convert(text)
    except ValueError:
        raise ParamError(f"bad {flag} value {text!r}") from None


def _load_material(args):
    return None if args.material is None else qrn.read_material(args.material)


def _emit_report(args, obj) -> None:
    """--report writes csv (tabular reports), text or json; then the text
    form prints.  A reader that leaves early (`| head`) loses only text it
    did not want, so the command keeps its own exit code."""
    if args.report is not None:
        suffix = Path(args.report).suffix.lower()
        if suffix == ".csv" and hasattr(obj, "to_csv"):
            text = obj.to_csv()
        elif suffix in (".txt", ".text"):
            text = obj.to_text() + "\n"
        else:
            text = obj.to_json() + "\n"
        files.write(args.report, text.encode())
    try:
        print(obj.to_text(), flush=True)
    except BrokenPipeError:
        # stdout's unflushed text would fail again at exit
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _open_input(path):
    if str(path) == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read(path) -> bytes:
    with _open_input(path) as fh:
        return fh.read()


def _regular_size(fh):
    """Byte size of a regular file behind fh, else None (pipes, terminals)."""
    try:
        st = os.fstat(fh.fileno())
    except (OSError, ValueError):
        return None
    return st.st_size if stat.S_ISREG(st.st_mode) else None


def cmd_crypt(args) -> int:
    """Stream the input through xor_stream in pieces of CHUNK_BLOCKS blocks,
    each at the counter of its first block, so memory stays O(chunk)."""
    params = CipherParams.from_bytes(_read(args.key), _read(args.nonce), args.counter, args.rounds)
    material = _load_material(args)
    piece = vector.CHUNK_BLOCKS * BLOCK_BYTES
    with _open_input(args.infile) as src:
        size = _regular_size(src)
        if size is not None:
            check_counter_span(params.counter, blocks_needed(size))
        with files.replacing(args.outfile) as dst:
            done = 0  # blocks written so far; every piece but the last is whole blocks
            # a buffered read returns `piece` bytes unless the input ends
            while data := src.read(piece):
                check_counter_span(params.counter, done + blocks_needed(len(data)))
                at = dataclasses.replace(params, counter=params.counter + done)
                dst.write(xor_stream(at, material, data))
                done += len(data) // BLOCK_BYTES
    return 0


def cmd_keystream(args) -> int:
    seed = _parse(bytes.fromhex, args.seed, "--seed") if args.seed else os.urandom(32)
    spec = generate.CorpusSpec(seed, args.count, args.bits, args.rounds, args.counter)
    manifest = generate.write_corpus(spec, args.out_dir, _load_material(args))
    print(f"wrote {spec.count} sequence(s) of {spec.bits} bits under {args.out_dir}")
    print(f"manifest: {manifest}")
    return 0


def cmd_qrn_fetch(args) -> int:
    endpoint = args.endpoint or os.environ.get(qrn.ENDPOINT_ENV)
    if not endpoint:
        raise ParamError(f"no endpoint given and {qrn.ENDPOINT_ENV} unset")
    mode = args.mode or os.environ.get(qrn.MODE_ENV, "raw")
    data = qrn.fetch_remote(endpoint, args.nbytes, mode=mode, timeout=args.timeout)
    pool = qrn.QrnPool.create(args.out, data, is_quantum=True)
    print(f"pool {pool.path}: {pool.total_bytes} bytes, cursor {pool.cursor_bytes}")
    return 0


def cmd_qrn_init(args) -> int:
    if args.nbytes < 1:
        raise ParamError(f"--bytes must be positive, got {args.nbytes}")
    if args.seed:
        seed = _parse(bytes.fromhex, args.seed, "--seed")
        data = qrn.DeterministicProvider(seed).take(args.nbytes)
    else:
        data = os.urandom(args.nbytes)  # OS entropy, not a QRNG
    pool = qrn.QrnPool.create(args.out, data, is_quantum=False)
    print(f"pool {pool.path}: {pool.total_bytes} bytes (non-quantum test pool)")
    return 0


def cmd_qrn_status(args) -> int:
    pool = qrn.QrnPool(args.pool)
    print(f"path:      {pool.path}")
    print(f"total:     {pool.total_bytes} bytes")
    print(f"cursor:    {pool.cursor_bytes} bytes consumed")
    print(f"remaining: {pool.remaining} bytes")
    print(f"quantum:   {'yes' if pool.origin.is_quantum else 'no'}")
    return 0


def cmd_material_derive(args) -> int:
    if args.pool:
        source = qrn.QrnPool(args.pool)
    else:
        source = qrn.DeterministicProvider(_parse(bytes.fromhex, args.seed, "--seed"))
    material = qrn.derive_session(source, args.rounds)
    qrn.write_material(args.out, material)
    kind = "quantum" if material.origin.is_quantum else "non-quantum"
    print(f"derived material for {args.rounds} rounds from {material.origin.identity} "
          f"({kind}) -> {args.out}")
    return 0


def cmd_test(args) -> int:
    if args.input_dir:
        paths = sorted(Path(args.input_dir).glob(args.glob))
        if not paths:
            raise IoFailure(f"no '{args.glob}' files under {args.input_dir}")
        sequences = (bits_from_bytes(_read(p), args.bits) for p in paths)
        manifest = Path(args.input_dir) / generate.MANIFEST_NAME
        origin = (generate.read_manifest(manifest)[1] if manifest.exists()
                  else Origin(f"files:{args.input_dir}", False))
    else:
        seed = _parse(bytes.fromhex, args.seed, "--seed") if args.seed else os.urandom(32)
        spec = generate.CorpusSpec(seed, args.sequences, args.bits, args.rounds, 0)
        material = _load_material(args)
        sequences = (
            bits_from_bytes(raw, args.bits)
            for raw in generate.iter_sequences(spec, material)
        )
        origin = (material.origin if material is not None
                  else Origin(f"qre-chacha{args.rounds}:seed={seed.hex()[:16]}", False))
    report = battery_run(
        sequences,
        suite=args.suite,
        alpha=args.alpha,
        alpha_uniformity=args.alpha_uniformity,
        origin=origin,
        jobs=args.jobs,
    )
    _emit_report(args, report)
    if not report.passed:
        raise VerificationFailure("randomness battery failed; see report")
    return 0


def cmd_avalanche(args) -> int:
    params = CipherParams(key=(0,) * 8, nonce=(0,) * 3, counter=args.counter, rounds=args.rounds)
    material = _load_material(args)
    if material is None and args.random_material:
        material = qrn.derive_session(qrn.DeterministicProvider(os.urandom(32)), args.rounds)
    segment, _, bit = args.flip.partition(":")
    report = analysis.avalanche_metric(
        params, material, (segment, _parse(int, bit or "0", "--flip")), args.trials,
        rng=args.rng_seed,
    )
    _emit_report(args, report)
    return 0


def _parse_diff(text: str, flag: str) -> tuple[int, ...]:
    return tuple(_parse(lambda w: int(w, 16), w, flag) for w in text.replace(",", " ").split())


def cmd_diffprob(args) -> int:
    spec = analysis.DiffSpec(
        _parse_diff(args.input_diff, "--input-diff"),
        _parse_diff(args.output_diff, "--output-diff"),
        args.rounds,
    )
    material = _load_material(args)
    est = analysis.empirical_diff_probability(
        spec, args.samples, qrn_mode=args.mode, material=material, rng=args.rng_seed
    )
    _emit_report(args, est)
    return 0


def cmd_bench(args) -> int:
    configs = []
    for spec in args.ciphers.split(","):
        name, _, rounds = spec.partition(":")
        configs.append((name, _parse(int, rounds, "--ciphers") if rounds else 8))
    sizes = [_parse(float, s, "--sizes") for s in args.sizes.split(",")]
    results = bench.run_sweep(configs, sizes, args.reps)
    _emit_report(args, bench.compare_report(results))
    return 0


def _add_crypt(sub, name, helptext):
    p = sub.add_parser(name, help=helptext)
    p.add_argument("--key", required=True, help="32-byte key file")
    p.add_argument("--nonce", required=True, help="12-byte nonce file")
    p.add_argument("--material", help="session material file (omit for plain ChaCha)")
    p.add_argument("--rounds", type=int, default=20, choices=None,
                   metavar="R", help=f"even round count, presets {ROUND_PRESETS}")
    p.add_argument("--counter", type=int, default=0, help="starting block counter")
    p.add_argument("--in", dest="infile", required=True, help="input file or '-'")
    p.add_argument("--out", dest="outfile", required=True, help="output file or '-'")
    p.set_defaults(func=cmd_crypt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrechacha",
        description="ChaCha / QRE-ChaCha toolkit: encryption, QRN management, "
                    "randomness testing, diffusion analysis, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_crypt(sub, "encrypt", "encrypt a file (stream XOR), streamed in "
               "cache-sized pieces; the output replaces --out only on success")
    _add_crypt(sub, "decrypt", "decrypt a file (same operation as encrypt)")

    p = sub.add_parser("keystream", help="emit keystream sequences plus a replay manifest")
    p.add_argument("--count", type=int, default=1, help="number of sequences")
    p.add_argument("--bits", type=int, required=True, help="bits per sequence")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--counter", type=int, default=0)
    p.add_argument("--seed", help="hex generation seed (random when omitted)")
    p.add_argument("--material", help="session material file (else derived from seed); "
                   "the manifest records its source and quantum flag")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_keystream)

    p = sub.add_parser("qrn", help="entropy pool management")
    qsub = p.add_subparsers(dest="qrn_command", required=True)
    f = qsub.add_parser("fetch", help="fetch bytes from a QRNG endpoint into a new pool "
                        "flagged quantum")
    f.add_argument("--endpoint", help=f"URL; default from ${qrn.ENDPOINT_ENV}")
    f.add_argument("--mode", choices=("raw", "hex"), help=f"decode mode; default from ${qrn.MODE_ENV}")
    f.add_argument("--bytes", dest="nbytes", type=int, required=True)
    f.add_argument("--timeout", type=float, default=10.0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_qrn_fetch)
    i = qsub.add_parser("init", help="create a local test pool, flagged non-quantum")
    i.add_argument("--bytes", dest="nbytes", type=int, required=True)
    i.add_argument("--seed", help="hex seed for a reproducible pool; default OS entropy")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_qrn_init)
    s = qsub.add_parser("status", help="show pool fill and cursor")
    s.add_argument("--pool", required=True)
    s.set_defaults(func=cmd_qrn_status)

    p = sub.add_parser("material", help="session material management")
    msub = p.add_subparsers(dest="material_command", required=True)
    d = msub.add_parser("derive", help="derive session material from a pool or seed; "
                        "the file records whether it is quantum")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--pool", help="entropy pool file (quantum iff its header says so)")
    src.add_argument("--seed", help="hex seed (deterministic, non-quantum)")
    d.add_argument("--rounds", type=int, required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_material_derive)

    p = sub.add_parser("test", help="run the randomness battery")
    p.add_argument("--suite", choices=SUITES, default="both")
    p.add_argument("--sequences", type=int, default=100)
    p.add_argument("--bits", type=int, default=1_000_000)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--alpha-uniformity", type=float, default=1e-4)
    p.add_argument("--seed", help="hex corpus seed (random when omitted)")
    p.add_argument("--material", help="session material file (else derived from seed); "
                   "the report copies its origin")
    p.add_argument("--input-dir", help="test packed bit files instead of generating; "
                   "the report copies the origin in its manifest.json, if any")
    p.add_argument("--glob", default="*.bits", help="pattern under --input-dir")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (>= 1)")
    p.add_argument("--report", help="write report here (.json/.csv/.txt by extension)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("avalanche", help="measure input-bit avalanche")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--counter", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--flip", default="key:0", help="segment:bit, e.g. key:17, nonce:3, counter:0")
    p.add_argument("--material", help="session material file")
    p.add_argument("--random-material", action="store_true",
                   help="derive throwaway random material")
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--report", help="write report here (.json/.txt by extension)")
    p.set_defaults(func=cmd_avalanche)

    p = sub.add_parser("diffprob", help="estimate a differential probability empirically")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--input-diff", required=True, help="16 hex words")
    p.add_argument("--output-diff", required=True, help="16 hex words")
    p.add_argument("--mode", choices=("fixed", "resampled"), default="fixed")
    p.add_argument("--material", help="session material for fixed mode")
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--report", help="write report here (.json/.txt by extension)")
    p.set_defaults(func=cmd_diffprob)

    p = sub.add_parser("bench", help="throughput benchmark")
    p.add_argument("--ciphers", default="qre-chacha:8,chacha:8,chacha:20",
                   help="comma list of cipher[:rounds]")
    p.add_argument("--sizes", default="10,20,30,40,50", help="payload sizes in MB")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--report", help="write report here (.json/.csv/.txt by extension)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QreChachaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
