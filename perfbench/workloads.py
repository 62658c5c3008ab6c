"""What each workload runs; shared by ``run.py`` and ``child.py``."""

# The CLI suites of the two workloads; together they are --suite all.
CLI_SUITES = {
    "tables": ("thm41", "lemma42", "weyl-match"),
    "sweeps": ("prop75", "cor74", "lemma72", "lemma22", "lemma71", "lemma82", "cor55", "table1"),
}
