"""Byte-identity pin of the command line.

`gkat.cli.main` runs in process on a fixed corpus of commands. One sha256
covers, for every command, its exit code, stdout, stderr and each file it
wrote, with the `wall_ms` column of the CSVs dropped. The pin guards the
learned DOT files, the table snapshots, the traces (whose L* states are
the learner's own: its queries and counterexamples depend only on the
target's language, not on the machine its teacher reads), the stats rows
and the word order of `gkat words`.
"""
import csv
import hashlib
import io

from gkat.cli import main

# Twelve ten-to-sixteen block programs over tests t1,t2 and actions
# p1,p2,p3, three for each --cx mode with and without --zero-fill.
DEEP = [
    ("(while t1 and t2 do do p3); (if t1 or t2 then do p1 else do p2); "
     "(while not t1 or t2 do do p2); (while t1 or t2 do do p3); "
     "(if t1 then do p2 else do p3); if t2 then do p1 else do p2; "
     "while t2 do do p2; if t1 and not t2 then do p3 else do p1; "
     "if t1 or t2 then do p1 else do p2; while t2 do do p3; "
     "(while not t1 or t2 do do p2); (while t1 and t2 do do p3)",
     "suffix", True),
    ("(while not t1 or t2 do do p3); (if t2 then do p2 else do p3); "
     "while t1 and not t2 do do p3; (if not t2 then do p3 else do p1); "
     "(if not t1 then do p2 else do p1); (if not t1 or t2 then do p2 else do p3); "
     "(if t2 then do p2 else do p3); (if t2 then do p1 else do p2); "
     "(while t1 and t2 do do p1); (if not t1 or t2 then do p1 else do p3); "
     "(if t2 then do p3 else do p1); (while not t2 do do p3); "
     "(while not t2 do do p3)",
     "suffix", True),
    ("(if t1 then do p2 else do p1); while not t2 do do p3; "
     "while t1 and not t2 do do p2; (if not t1 then do p2 else do p1); "
     "(if t1 or t2 then do p1 else do p2); (while not t2 do do p1); "
     "(while not t1 or t2 do do p2); (while t1 and t2 do do p2); "
     "(if not t2 then do p2 else do p3); while t1 and t2 do do p2; "
     "(while t1 and not t2 do do p3); (while t2 do do p3)",
     "suffix", True),
    ("(while t1 do do p3); (if t2 then do p2 else do p1); "
     "if t1 or t2 then do p1 else do p3; if t1 and t2 then do p3 else do p2; "
     "(if t1 then do p2 else do p1); (if t2 then do p3 else do p2); "
     "(while t1 or t2 do do p3); (while t1 do do p2); "
     "if t2 then do p1 else do p3; (if t1 or t2 then do p2 else do p1); "
     "(while t1 or t2 do do p1); (while not t2 do do p2); "
     "(while t1 and t2 do do p1)",
     "suffix", False),
    ("(while t1 do do p1); (while not t1 do do p2); (while not t1 do do p2); "
     "(while t1 and not t2 do do p2); (while not t1 do do p2); "
     "(if not t2 then do p3 else do p1); (if t1 or t2 then do p2 else do p1); "
     "(while t1 and t2 do do p1); while not t1 or t2 do do p3; "
     "while not t1 do do p3; while t1 and t2 do do p1; "
     "while not t1 or t2 do do p1; (while not t1 or t2 do do p1); "
     "(while not t1 do do p3); (if t1 then do p3 else do p1)",
     "suffix", False),
    ("if not t1 or t2 then do p2 else do p3; while t1 and not t2 do do p1; "
     "(if not t2 then do p2 else do p1); (while t1 or t2 do do p2); "
     "(while t1 and t2 do do p1); (if not t1 then do p2 else do p3); "
     "(while t2 do do p1); (while t1 and not t2 do do p1); "
     "(if not t2 then do p3 else do p1); while t1 and not t2 do do p1; "
     "(if not t2 then do p2 else do p3); (if not t1 then do p1 else do p2)",
     "suffix", False),
    ("(if t1 then do p1 else do p3); if not t1 or t2 then do p3 else do p1; "
     "(if not t1 or t2 then do p3 else do p2); (while not t1 do do p1); "
     "(if t1 then do p2 else do p3); (if not t1 then do p3 else do p2); "
     "(while not t1 or t2 do do p1); (if not t1 then do p2 else do p3); "
     "(while t1 do do p3); (if not t1 or t2 then do p2 else do p1); "
     "(if not t1 or t2 then do p1 else do p2); (while not t1 do do p2); "
     "(while t1 or t2 do do p2); if not t1 then do p1 else do p2; "
     "if t1 and t2 then do p2 else do p3",
     "optimized", False),
    ("(if not t1 or t2 then do p2 else do p1); (if not t2 then do p3 else do p1); "
     "(while t2 do do p1); while t1 or t2 do do p3; "
     "(while not t1 or t2 do do p3); while t1 do do p3; "
     "if not t1 then do p1 else do p2; while not t2 do do p1; "
     "(if not t1 or t2 then do p2 else do p3); (if not t2 then do p1 else do p2); "
     "(while t1 and not t2 do do p2); while t1 and not t2 do do p3; "
     "while t2 do do p2; (if not t1 then do p3 else do p1); while t2 do do p2",
     "optimized", False),
    ("if t1 then do p2 else do p1; if t1 then do p3 else do p2; "
     "(if t1 or t2 then do p3 else do p1); (while not t1 or t2 do do p1); "
     "(if t1 and not t2 then do p1 else do p3); while t1 or t2 do do p2; "
     "(while not t1 do do p2); if t1 and not t2 then do p3 else do p2; "
     "if t1 and t2 then do p3 else do p2; (if not t1 or t2 then do p1 else do p3); "
     "if t1 and not t2 then do p2 else do p1; if t1 and t2 then do p1 else do p2",
     "optimized", False),
    ("if t2 then do p2 else do p1; (while not t2 do do p3); "
     "(if not t1 then do p3 else do p2); (while t1 or t2 do do p2); "
     "(while not t1 or t2 do do p2); (while not t2 do do p2); "
     "(if t1 or t2 then do p3 else do p2); while t1 and not t2 do do p1; "
     "if t1 or t2 then do p3 else do p2; (if t1 and not t2 then do p1 else do p2); "
     "(if t1 then do p1 else do p3)",
     "optimized", True),
    ("(if t1 and t2 then do p3 else do p2); (while t2 do do p1); "
     "if t1 and not t2 then do p3 else do p2; (while t2 do do p3); "
     "(if t1 and t2 then do p1 else do p2); (while t1 or t2 do do p2); "
     "(if t2 then do p1 else do p2); while not t1 do do p2; "
     "(while t1 and not t2 do do p1); if t2 then do p1 else do p3; "
     "(while t2 do do p3); (if t2 then do p3 else do p1); "
     "if t1 or t2 then do p1 else do p3; while not t1 or t2 do do p1; "
     "(while t1 and t2 do do p3); (if not t2 then do p3 else do p1)",
     "optimized", True),
    ("(while t1 and not t2 do do p2); (while t1 and not t2 do do p2); "
     "if t1 and t2 then do p3 else do p2; if not t1 then do p2 else do p3; "
     "while t1 or t2 do do p3; if t1 or t2 then do p1 else do p3; "
     "while t1 do do p1; (while t1 and not t2 do do p1); while t2 do do p2; "
     "while t1 do do p2; (if t1 and not t2 then do p3 else do p2); "
     "if t1 and not t2 then do p1 else do p2; "
     "if t1 and t2 then do p2 else do p3",
     "optimized", True),
]

WHILE_PROG = "(while b do do p); do q"
MANY_TESTS = ",".join("t%d" % i for i in range(21))


def _nested_loops(k):
    return "; ".join(["while b do do p"] * k) + "; do q"


def _commands():
    """The argument lists of the corpus, in order. OUT stands for a fresh
    output directory per command and TMP for the directory that holds
    them and a plain file named `file`."""
    out = ["--out-dir", "OUT"]
    runs = []
    for expr, cx, zero_fill in DEEP:
        argv = ["learn", "--expr", expr, "--tests", "t1,t2", "--actions", "p1,p2,p3",
                "--algo", "both", "--trace", "--cx", cx] + out
        runs.append(argv + (["--zero-fill"] if zero_fill else []))
    runs += [
        ["compare", "--expr", "(while t1 do do p1); do p2", "--tests", "t1,t2,t3",
         "--actions", "p1,p2", "--sweep", "3"] + out,
        ["compare", "--expr", "if t1 then do p1 else do p2", "--tests", "t1,t2,t3",
         "--actions", "p1,p2,p3", "--sweep", "3", "--zero-fill", "--cx", "optimized",
         "--algo", "glstar"] + out,
        ["equiv", "--expr", WHILE_PROG,
         "--expr2", "if b then do p; ((while b do do p); do q) else do q",
         "--tests", "b", "--actions", "p,q"],
        ["equiv", "--expr", _nested_loops(40), "--expr2", _nested_loops(39),
         "--tests", "b", "--actions", "p,q"],
        ["equiv", "--expr", WHILE_PROG, "--expr2", "if b then do p; do q else do q",
         "--tests", "b", "--actions", "p,q"],
        ["words", "--expr", "while b do (if c then do p else do q)", "--tests", "b,c",
         "--actions", "p,q", "--max-actions", "2"],
        # exit 2: bad input
        ["learn", "--expr", "(do p", "--tests", "b", "--actions", "p,q"] + out,
        ["learn", "--expr", "do p", "--tests", "b,1c", "--actions", "p"] + out,
        ["learn", "--expr", "do p", "--tests", "b", "--actions", "p",
         "--out-dir", "TMP/file/sub"],
        ["equiv", "--expr", "do r", "--expr2", "do p", "--tests", "b", "--actions", "p"],
        ["compare", "--expr", "do p", "--tests", "b", "--actions", "p",
         "--sweep", "0"] + out,
        ["compare", "--expr", "do p", "--tests", "b", "--actions", "p",
         "--sweep", "2"] + out,
        ["words", "--expr", "do p", "--tests", "b", "--actions", "p",
         "--max-actions", "-1"],
        # exit 3: capacity
        ["learn", "--expr", "do p", "--tests", MANY_TESTS, "--actions", "p"] + out,
        ["equiv", "--expr", "do p", "--expr2", "do p", "--tests", MANY_TESTS,
         "--actions", "p"],
        ["words", "--expr", "do p", "--tests", MANY_TESTS, "--actions", "p"],
    ]
    return runs


def _without_wall_ms(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "wall_ms" not in rows[0]:
        return text
    drop = rows[0].index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return buf.getvalue()


def _record(tmp_path, capsys):
    """The text the pin hashes: each command with everything it produced."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    lines = []
    for i, argv in enumerate(_commands()):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        code = main([a.replace("OUT", str(out_dir)).replace("TMP", str(tmp_path))
                     for a in argv])
        captured = capsys.readouterr()
        lines += ["$ gkat " + " ".join(argv), "exit %d" % code,
                  "stdout:", captured.out, "stderr:",
                  captured.err.replace(str(tmp_path), "TMP")]
        for path in sorted(out_dir.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                text = _without_wall_ms(text)
            lines += ["file %s:" % path.name, text]
    return "\n".join(lines)


def test_cli_output_unchanged(tmp_path, capsys):
    """Every exit code, stream and file of the corpus stays byte-identical."""
    digest = hashlib.sha256(_record(tmp_path, capsys).encode("utf-8")).hexdigest()
    assert digest == (
        "35901edf4673ae8e20780be10307f4836337523d724932025dbbe206a13987e3"
    )
