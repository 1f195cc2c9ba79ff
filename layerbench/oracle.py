"""Independent answer checks.

Two oracles, neither of which runs engine code to answer a query:

* the keyed table's model (:class:`workloads.KeyedTable`) answers the
  point reads and range aggregates of ``oltp_rw`` and ``served_mix``;
* :class:`SqliteOracle`, stdlib ``sqlite3`` loaded with the same generated
  star-schema rows, answers every star-schema statement.

Row lists are compared as multisets, floats with a relative tolerance,
since SUM over floats depends on summation order.
"""

import math
import sqlite3

#: Relative/absolute tolerance on float cells.
REL_TOL = 1e-6
ABS_TOL = 1e-6

_SQLITE_TYPES = {"INT": "INTEGER", "FLOAT": "REAL", "TEXT": "TEXT"}


def _sort_key(row):
    return tuple(
        "%.6g" % cell if isinstance(cell, float) else repr(cell)
        for cell in row
    )


def _cells_match(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, float) or isinstance(b, float):
            return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return a == b
    return a == b


def rows_match(got, expected):
    """Whether two row lists are equal as multisets (floats approximately)."""
    if len(got) != len(expected):
        return False
    for g, e in zip(sorted(got, key=_sort_key), sorted(expected, key=_sort_key)):
        if len(g) != len(e):
            return False
        if not all(_cells_match(a, b) for a, b in zip(g, e)):
            return False
    return True


class SqliteOracle:
    """An in-memory sqlite database holding copies of engine tables.

    ``add_table`` copies a freshly generated :class:`Table` (its schema and
    rows); ``answer`` runs a statement and memoizes the rows, which is
    sound because the copied tables are never written.
    """

    def __init__(self):
        self._conn = sqlite3.connect(":memory:")
        self._memo = {}

    def add_table(self, table):
        # Each generated table's first column is a unique integer key,
        # which sqlite then stores as the rowid: joins probe it directly.
        cols = ", ".join(
            "%s %s" % (c.name, "INTEGER PRIMARY KEY" if i == 0
                       else _SQLITE_TYPES[c.dtype.name])
            for i, c in enumerate(table.schema.columns)
        )
        self._conn.execute("CREATE TABLE %s (%s)" % (table.name, cols))
        marks = ", ".join("?" * len(table.schema.columns))
        self._conn.executemany(
            "INSERT INTO %s VALUES (%s)" % (table.name, marks), table.rows()
        )

    def distinct(self, table, column):
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT %s FROM %s ORDER BY 1" % (column, table))]

    def answer(self, sql):
        rows = self._memo.get(sql)
        if rows is None:
            rows = [tuple(r) for r in self._conn.execute(sql)]
            self._memo[sql] = rows
        return rows

    def close(self):
        self._conn.close()
