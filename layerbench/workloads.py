"""The benchmark's three seeded workloads and its closed-loop load generator.

Every workload runs the engine exactly as shipped (``EngineConfig()``)
and contains the three operation classes the end-to-end metrics cover,
in different proportions:

* ``read`` — a point read by key;
* ``write`` — a single-row INSERT;
* ``analytic`` — an aggregate over many rows (a range aggregate over the
  keyed table in ``oltp_rw``; star-schema scan-aggregates and 2-4-way
  joins elsewhere).

Each caller repeats a fixed cycle of statement kinds, each kind spread
evenly over the cycle, so every run has the same shares and the same
interleaving; every statement is generated from the seed alone; the engine only ever sees SQL text. A caller's first
cycle is a burn-in: it runs and is checked, but no metric counts it. Answers are checked
against the keyed table's own model (inline, it is a dict lookup) or
against sqlite after the timed window (:mod:`oracle`).
"""

import threading
import time

import numpy as np

from repro.engine import (
    AuditLog,
    Catalog,
    Database,
    EngineConfig,
    Policy,
    QueryServer,
    datagen,
)
from repro.engine.session.context import WRITE_STATEMENT_COST

from oracle import SqliteOracle, rows_match

#: Zipf exponent of point-read keys (rank 1 is the hottest key).
ZIPF_A = 1.2

#: Keys inserted during the run that the stale-index probe reads back
#: after the timed window (see :func:`probe_stale_index`).
PROBE_KEYS = 200

#: Keys covered by one range aggregate over the keyed table.
RANGE_WIDTH = 200

#: Warm-up point reads per setup (fills the SQL-text and plan caches).
WARMUP_READS = 300

#: Every this-many-th star-schema analytic uses one-off constants.
ADHOC_EVERY = 4

#: Constant sets per star-schema template in the repeating pool.
POOL_VARIANTS = 3

#: Seconds a caller thread may overrun the window before the run fails.
JOIN_GRACE = 120.0


class Sizes:
    """Table sizes of one benchmark scale."""

    def __init__(self, kv_rows, sales_rows, customers, products, dates):
        self.kv_rows = kv_rows
        self.sales_rows = sales_rows
        self.customers = customers
        self.products = products
        self.dates = dates


#: The measured scale: the keyed table is ~400x the plan cache's 256
#: entries, and the fact table spans four 65,536-row groups.
FULL = Sizes(100_000, 200_000, 2_000, 400, 365)

#: The self-test's scale.
TINY = Sizes(3_000, 8_000, 200, 60, 120)


class Op:
    """One generated statement and, once run, what came back."""

    __slots__ = ("kind", "sql", "expect", "after_write",
                 "publish", "corrupt", "start", "seconds", "work", "rows",
                 "error", "wrong", "pipe", "exec", "ticket", "rid", "cycle",
                 "cycle_end", "counted")

    def __init__(self, kind, sql, expect=None, after_write=False,
                 publish=None):
        self.kind = kind
        self.sql = sql
        # A row list from the model, ORACLE (answered by sqlite after the
        # window), or None for writes (their status is checked).
        self.expect = expect
        self.after_write = after_write
        self.publish = publish
        self.corrupt = False
        self.start = None
        self.seconds = None
        self.work = 0.0
        self.rows = None
        self.error = None
        self.wrong = False
        self.pipe = None
        self.exec = None
        self.ticket = None
        self.rid = None
        self.cycle = 0
        self.cycle_end = False
        # Whether the end-to-end metrics count it (set by ``drive``).
        self.counted = False

    @property
    def failed(self):
        return self.error is not None or self.wrong


#: Marker: the answer is checked against sqlite after the timed window.
ORACLE = "oracle"


class KeyedTable:
    """The keyed table ``kv``: its generated rows and the model that
    answers reads of it (shared by every caller of a run)."""

    def __init__(self, rng, n_rows):
        g = rng.integers(0, 100, n_rows).tolist()
        v = np.round(rng.random(n_rows) * 1000.0, 2).tolist()
        tag = rng.integers(0, 50, n_rows).tolist()
        self.rows = [(k, g[k], v[k], "t%d" % tag[k]) for k in range(n_rows)]
        self.by_key = {row[0]: row for row in self.rows}
        self.n_initial = n_rows
        # Zipf rank -> key, so the hot keys are scattered over the table.
        self.hot = rng.permutation(n_rows).tolist()
        # Keys whose INSERT completed during the run, in completion order.
        self.in_run = []

    def load(self, db):
        db.execute("CREATE TABLE kv (k INT, g INT, v FLOAT, tag TEXT)")
        db.catalog.table("kv").insert_rows(self.rows)
        db.execute("ANALYZE kv")
        db.execute("CREATE INDEX kv_k ON kv (k)")

    def publish(self, row):
        self.by_key[row[0]] = row
        self.in_run.append(row[0])

    def zipf_key(self, rng):
        rank = int(rng.zipf(ZIPF_A))
        return self.hot[(rank - 1) % self.n_initial]


def point_read_sql(key):
    return "SELECT k, g, v, tag FROM kv WHERE k = %d" % key


def interleave(cycle):
    """The kinds of one cycle of ``(kind, count)`` pairs, each kind's
    i-th statement placed (i + 1/2) / count of the way through."""
    slots = [((i + 0.5) / n, order, kind)
             for order, (kind, n) in enumerate(cycle) for i in range(n)]
    return [kind for __, __, kind in sorted(slots)]


class CallerStream:
    """One caller's seeded statement stream.

    The kinds repeat ``interleave(cycle)``, and the caller pauses
    ``think`` seconds after each reply. Reads and writes go to the keyed
    table (or, with ``star``, to the star schema's dimensions and staging
    table); analytics come from ``analytic()``.
    """

    def __init__(self, rng, cycle, table=None, star=None, analytic=None,
                 think=0.0):
        self.rng = rng
        self.cycle = interleave(cycle)
        self.think = think
        self.n_cycle = -1
        self.table = table
        self.star = star
        self.analytic = analytic
        self._next_key = table.n_initial if table else 0
        self._pending = []
        self._last = None
        # Star-schema state: analytics sent, the pool round in progress,
        # staging rows written.
        self.n_analytic = 0
        self.pool_round = []
        self.n_staged = 0

    def next_op(self):
        if not self._pending:
            self._pending = self.cycle[::-1]
            self.n_cycle += 1
        kind = self._pending.pop()
        # Star-schema writes go to the staging table, which no read reads.
        after_write = self._last == "write" and self.star is None
        self._last = kind
        if kind == "analytic":
            op = self.analytic(self)
        elif self.star is not None:
            op = self.star.read(self) if kind == "read" else self.star.write(self)
        elif kind == "read":
            op = self._kv_read()
        else:
            op = self._kv_write()
        op.after_write = after_write
        op.cycle = self.n_cycle
        op.cycle_end = not self._pending
        return op

    def _kv_read(self):
        # Only keys loaded before CREATE INDEX: the index never sees a
        # later INSERT, so reads of in-run keys go to the probe instead.
        key = self.table.zipf_key(self.rng)
        return Op("read", point_read_sql(key), expect=[self.table.by_key[key]])

    def _kv_write(self):
        rng = self.rng
        key = self._next_key
        self._next_key += 1
        row = (key, int(rng.integers(100)), round(float(rng.random()) * 1000.0, 2),
               "t%d" % rng.integers(50))
        table = self.table
        return Op("write", "INSERT INTO kv VALUES (%d, %d, %r, '%s')" % row,
                  publish=lambda: table.publish(row))


def kv_range(stream):
    """``oltp_rw``'s analytic: COUNT/SUM over a range of the keys loaded
    before CREATE INDEX (in-run keys lie above them)."""
    table = stream.table
    lo = int(stream.rng.integers(table.n_initial - RANGE_WIDTH + 1))
    rows = [table.by_key[k] for k in range(lo, lo + RANGE_WIDTH)]
    sql = ("SELECT COUNT(*), SUM(v) FROM kv WHERE k >= %d AND k < %d"
           % (lo, lo + RANGE_WIDTH))
    return Op("analytic", sql, expect=[(len(rows), sum(r[2] for r in rows))])


#: Star-schema analytic templates: (SELECT .. WHERE, GROUP BY), 1-4 tables.
#: ``{...}`` slots take seeded constants; ad hoc statements append a
#: one-off ``s_amount`` bound before the GROUP BY.
STAR_TEMPLATES = (
    ("SELECT COUNT(*), SUM(s_amount) FROM sales WHERE s_quantity >= {qty}",
     ""),
    ("SELECT s_quantity, COUNT(*), SUM(s_amount) FROM sales "
        "WHERE s_date < {day}", " GROUP BY s_quantity"),
    ("SELECT c_region, COUNT(*), SUM(s_amount) FROM sales, customer "
        "WHERE s_customer = c_id AND c_age < {age}", " GROUP BY c_region"),
    ("SELECT p_category, SUM(s_quantity) FROM sales, product "
        "WHERE s_product = p_id AND s_quantity >= {qty}",
     " GROUP BY p_category"),
    ("SELECT d_month, COUNT(*), SUM(s_amount) FROM sales, dates "
        "WHERE s_date = d_id AND d_weekday = {weekday}", " GROUP BY d_month"),
    ("SELECT c_region, COUNT(*), SUM(s_amount) FROM sales, customer, "
        "product WHERE s_customer = c_id AND s_product = p_id "
        "AND p_category = '{category}'", " GROUP BY c_region"),
    ("SELECT d_month, SUM(s_amount) FROM sales, product, dates "
        "WHERE s_product = p_id AND s_date = d_id AND p_price < {price}",
     " GROUP BY d_month"),
    ("SELECT c_segment, COUNT(*), SUM(s_amount) FROM sales, customer, "
        "product, dates WHERE s_customer = c_id AND s_product = p_id "
        "AND s_date = d_id AND c_region = '{region}' AND d_month <= {month}",
     " GROUP BY c_segment"),
)


#: Full-table scan-aggregates: in star_olap's pool, and served_mix's
#: analytics. They take no constants, so their cost does not depend on
#: the seed.
FULL_SCANS = (
    "SELECT COUNT(*), SUM(s_amount) FROM sales",
    "SELECT s_quantity, COUNT(*), SUM(s_amount) FROM sales GROUP BY s_quantity",
)


class StarQueries:
    """The star schema's statements: the analytic pool, the ad hoc
    generator, dimension point reads and staging-table writes."""

    def __init__(self, rng, oracle, sizes):
        self.sizes = sizes
        self.ranges = {"qty": (2, 9), "day": (30, sizes.dates - 30),
                       "age": (25, 81), "weekday": (0, 7), "price": (10, 61),
                       "month": (2, 12)}
        self.choices = {"region": oracle.distinct("customer", "c_region"),
                        "category": oracle.distinct("product", "p_category")}
        self.pool = [
            self._fill(rng, head, stratum) + group
            for head, group in STAR_TEMPLATES
            for stratum in range(POOL_VARIANTS)
        ] + list(FULL_SCANS)

    def _fill(self, rng, head, stratum=None):
        """Fill a template's slots. With ``stratum``, each constant is
        drawn from that share of its range, so every seed's pool spans
        each range evenly and the pool's cost varies little by seed."""
        def position():
            u = float(rng.random())
            return u if stratum is None else (stratum + u) / POOL_VARIANTS
        values = {}
        for name, (lo, hi) in self.ranges.items():
            values[name] = int(lo + position() * (hi - lo))
        for name, options in self.choices.items():
            values[name] = options[int(position() * len(options))]
        return head.format(**values)

    def analytic(self, stream):
        """Pool statements in shuffled rounds; every ADHOC_EVERY-th is
        the next template in turn, with fresh constants from the next
        stratum and a one-off amount bound."""
        stream.n_analytic += 1
        rng = stream.rng
        if stream.n_analytic % ADHOC_EVERY == 0:
            n_adhoc = stream.n_analytic // ADHOC_EVERY
            head, group = STAR_TEMPLATES[n_adhoc % len(STAR_TEMPLATES)]
            stratum = n_adhoc // len(STAR_TEMPLATES) % POOL_VARIANTS
            sql = "%s AND s_amount < %.2f%s" % (
                self._fill(rng, head, stratum),
                50.0 + 2000.0 * float(rng.random()), group)
            return Op("analytic", sql, expect=ORACLE)
        if not stream.pool_round:
            stream.pool_round = rng.permutation(len(self.pool)).tolist()
        return Op("analytic", self.pool[stream.pool_round.pop()], expect=ORACLE)

    def read(self, stream):
        rng = stream.rng
        if rng.random() < 0.5:
            sql = ("SELECT c_segment, c_region, c_age FROM customer "
                   "WHERE c_id = %d" % rng.integers(self.sizes.customers))
        else:
            sql = ("SELECT p_category, p_price FROM product WHERE p_id = %d"
                   % rng.integers(self.sizes.products))
        return Op("read", sql, expect=ORACLE)

    def write(self, stream):
        rng = stream.rng
        stream.n_staged += 1
        sql = "INSERT INTO sales_staging VALUES (%d, %d, %d, %.2f)" % (
            stream.n_staged, rng.integers(self.sizes.customers),
            rng.integers(self.sizes.products), 1000.0 * float(rng.random()))
        return Op("write", sql)


def full_scan(stream):
    """``served_mix``'s analytic: the full scans in turn."""
    stream.n_analytic += 1
    sql = FULL_SCANS[stream.n_analytic % len(FULL_SCANS)]
    return Op("analytic", sql, expect=ORACLE)


def build_star(db, sizes, seed):
    """The star schema, its dimension-key indexes and the staging table."""
    datagen.make_star_schema(
        db.catalog, n_customers=sizes.customers, n_products=sizes.products,
        n_dates=sizes.dates, n_sales=sizes.sales_rows, seed=seed)
    db.execute("CREATE INDEX customer_id ON customer (c_id)")
    db.execute("CREATE INDEX product_id ON product (p_id)")
    db.execute("CREATE TABLE sales_staging "
               "(st_id INT, st_customer INT, st_product INT, st_amount FLOAT)")


def star_oracle(sizes, seed):
    """sqlite loaded with the star schema generated from the same seed."""
    catalog = Catalog()
    tables = datagen.make_star_schema(
        catalog, n_customers=sizes.customers, n_products=sizes.products,
        n_dates=sizes.dates, n_sales=sizes.sales_rows, seed=seed)
    oracle = SqliteOracle()
    for table in tables.values():
        oracle.add_table(table)
    return oracle


def _warm_kv(db, rng, table, n):
    for __ in range(n):
        db.execute(point_read_sql(table.zipf_key(rng)))


class Env:
    """One set-up workload: the engine objects, the callers (one per
    thread) and their streams."""

    def __init__(self, db, callers, streams, server=None, audit=None):
        self.db = db
        self.callers = callers
        self.streams = streams
        self.server = server
        self.audit = audit


def _rngs(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


class OltpRw:
    """One gated session over a 10^5-row keyed table: 76% Zipf point
    reads, 20% single-row INSERTs, 4% range aggregates."""

    name = "oltp_rw"
    CYCLE = (("read", 38), ("write", 10), ("analytic", 2))

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        self.oracle = None

    def setup(self):
        data_rng, warm_rng, op_rng = _rngs(self.seed, 3)
        db = Database(config=EngineConfig())
        table = KeyedTable(data_rng, self.sizes.kv_rows)
        table.load(db)
        _warm_kv(db, warm_rng, table, WARMUP_READS)
        audit = AuditLog()
        session = db.session(
            policy=Policy(statement_kinds=("SELECT", "INSERT")), audit=audit)

        def call(sql):
            res = session.execute(sql)
            return res.raw, res.est_cost, None

        stream = CallerStream(op_rng, self.CYCLE, table=table, analytic=kv_range)
        return Env(db, [call], [stream], audit=audit)


class StarOlap:
    """One caller on plain ``db.execute`` over the star schema: half the
    statements are scan-aggregates and 2-4-way joins (three in four from
    a pool that fits in the plan cache), the rest dimension point reads
    and INSERTs into a staging table no analytic reads."""

    name = "star_olap"
    CYCLE = (("analytic", 6), ("read", 3), ("write", 3))

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        pool_rng = _rngs(seed, 4)[3]
        self.oracle = star_oracle(sizes, seed)
        self.queries = StarQueries(pool_rng, self.oracle, sizes)

    def setup(self):
        __, __, op_rng = _rngs(self.seed, 3)
        db = Database(config=EngineConfig())
        build_star(db, self.sizes, self.seed)
        for sql in FULL_SCANS:
            db.execute(sql)
        for sql in self.queries.pool:
            db.explain(sql)
        queries = self.queries

        def call(sql):
            return db.execute(sql), None, None

        stream = CallerStream(op_rng, self.CYCLE, star=queries,
                              analytic=queries.analytic)
        return Env(db, [call], [stream])


class ServedMix:
    """``QueryServer`` with the shipped admission settings and two client
    threads, each with its own tenant and session: an oltp caller sending
    oltp_rw's reads and writes, and an analyst sending star_olap's full
    scans with ``ANALYST_THINK_S`` between reply and next scan.

    A scan costs about 400K work against the shipped 200K bucket refilled
    at 100K/s, so it leaves the analyst's tenant 200K in debt, and the
    next scan, sent 3 s later, waits about 1 s more for a full bucket;
    under the shipped fifo policy the oltp caller queues behind it.
    Because that wait is set by the refill rate, it is the same in every
    cycle and on every host."""

    name = "served_mix"
    N_CLIENTS = 2
    CYCLE = (("read", 40), ("write", 10))
    ANALYST_CYCLE = (("analytic", 1),)
    ANALYST_THINK_S = 3.0

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        self.oracle = star_oracle(sizes, seed)

    def setup(self):
        rngs = _rngs(self.seed, 2 + self.N_CLIENTS)
        db = Database(config=EngineConfig())
        table = KeyedTable(rngs[0], self.sizes.kv_rows)
        table.load(db)
        build_star(db, self.sizes, self.seed)
        _warm_kv(db, rngs[1], table, WARMUP_READS)
        for sql in FULL_SCANS:
            db.execute(sql)
        server = QueryServer(db)
        callers = [_server_caller(server.session(tenant=tenant))
                   for tenant in ("oltp", "analyst")]
        streams = [
            CallerStream(rngs[2], self.CYCLE, table=table),
            CallerStream(rngs[3], self.ANALYST_CYCLE, analytic=full_scan,
                         think=self.ANALYST_THINK_S),
        ]
        return Env(db, callers, streams, server=server)


def _server_caller(session):
    def call(sql):
        raw = session.execute(sql)
        return raw, None, session.last_admission
    return call


WORKLOADS = {cls.name: cls for cls in (OltpRw, StarOlap, ServedMix)}


# ----------------------------------------------------------------------
# The closed-loop load generator
# ----------------------------------------------------------------------
def run_op(call, op, tracer=None, request_id=None):
    """Send one statement, time it, and record what came back."""
    t0 = op.start = time.perf_counter()
    try:
        if tracer is None:
            raw, est_cost, ticket = call(op.sql)
        else:
            raw, est_cost, ticket = tracer.root(
                "op." + op.kind, request_id, call, op.sql)
    except Exception as exc:  # a failed statement is a counted failure
        op.seconds = time.perf_counter() - t0
        op.error = "%s: %s" % (type(exc).__name__, exc)
        return
    op.seconds = time.perf_counter() - t0
    op.ticket = ticket
    if isinstance(raw, str):
        if ticket is not None:
            op.work = ticket.cost
        else:
            op.work = est_cost if est_cost is not None else WRITE_STATEMENT_COST
        if raw == "INSERT 1" and op.publish is not None:
            op.publish()
        op.wrong = raw != ("INSERT 2" if op.corrupt else "INSERT 1")
        return
    op.rows = raw.rows
    op.work = raw.telemetry.total_work
    op.exec = raw.telemetry
    op.pipe = raw.pipeline_telemetry
    if op.expect is not ORACLE:
        op.wrong = not rows_match(op.rows, _expected(op, op.expect))


def _expected(op, rows):
    return rows + [("corrupted",)] if op.corrupt else rows


def drive(env, seconds, tracer=None, max_ops=None, corrupt=()):
    """Run every caller in a closed loop for ``seconds`` (or until one
    has sent ``max_ops`` statements); returns ``(ops, throughput)``.

    Each op's ``counted`` says whether the end-to-end metrics count it.
    With one caller, these are the statements after its burn-in cycle,
    and throughput is their number per second of the window left after
    it. With several, they are the statements sent during the whole
    cycles of the slowest caller (see :func:`_whole_cycles`), and
    throughput is their number per second of that span.

    ``corrupt`` holds per-caller statement indices whose expected answer
    is deliberately wrong (the self-test's check of the checker).
    """
    per_client = [[] for __ in env.callers]
    burned_in = [None] * len(env.callers)
    errors = []
    stop = threading.Event()
    start = time.perf_counter()
    deadline = start + seconds

    def loop(client):
        call, stream, out = env.callers[client], env.streams[client], per_client[client]
        try:
            while not stop.is_set() and time.perf_counter() < deadline:
                op = stream.next_op()
                op.corrupt = len(out) in corrupt
                op.rid = (client << 32) | len(out)
                run_op(call, op, tracer, op.rid)
                out.append(op)
                if op.cycle_end and op.cycle == 0:
                    burned_in[client] = time.perf_counter()
                if max_ops is not None and len(out) >= max_ops:
                    stop.set()
                elif stream.think:
                    stop.wait(max(0.0, min(stream.think,
                                           deadline - time.perf_counter())))
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
            stop.set()
            raise

    if len(env.callers) == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(c,), daemon=True)
                   for c in range(len(env.callers))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + JOIN_GRACE)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a caller thread did not stop")
    end = time.perf_counter()
    if errors:
        raise errors[0]
    ops = [op for out in per_client for op in out]
    span = _whole_cycles(min(per_client, key=len)) if len(per_client) > 1 else None
    if span is not None:
        lo, hi = span
        for op in ops:
            op.counted = lo <= op.start < hi
        return ops, sum(1 for op in ops if op.counted) / (hi - lo)
    throughput = 0.0
    for out, t0 in zip(per_client, burned_in):
        for op in out:
            op.counted = op.cycle > 0
        if t0 is not None and end > t0:
            throughput += sum(1 for op in out if op.cycle > 0) / (end - t0)
    return ops, throughput


def _whole_cycles(ops):
    """``(start, end)`` of the whole post-burn-in cycles in one caller's
    ops: from the start of its cycle 1 to the start of its last cycle;
    ``None`` when that spans fewer than two cycles.

    With several callers the metrics count only statements sent in this
    span of the caller with the longest cycle (the fewest statements),
    so every run counts whole cycles of it: in ``served_mix`` a run
    whose window happens to hold one more admission stall than another
    does not report a lower throughput for it.
    """
    starts = [op.start for i, op in enumerate(ops)
              if op.cycle > 0 and (i == 0 or ops[i - 1].cycle != op.cycle)]
    if len(starts) < 3:
        return None
    return starts[0], starts[-1]


def probe_stale_index(env):
    """Read back, through the first caller, up to ``PROBE_KEYS`` keys
    inserted during the run, evenly spaced, and check each against the
    model; returns the probe's ops (empty without a keyed table).

    ``Catalog.create_index`` never adds a later INSERT to the index, so
    these reads come back empty. They run after the timed window and are
    not part of the measured workload: the run reports them separately.
    """
    stream = env.streams[0]
    table = stream.table
    if table is None or not table.in_run:
        return []
    keys = table.in_run
    step = max(1, len(keys) // PROBE_KEYS)
    ops = []
    for key in keys[::step][:PROBE_KEYS]:
        op = Op("read", point_read_sql(key), expect=[table.by_key[key]])
        run_op(env.callers[0], op)
        ops.append(op)
    return ops


def check_deferred(ops, oracle):
    """Compare every sqlite-checked answer (after the timed window)."""
    for op in ops:
        if op.expect is ORACLE and op.error is None:
            op.wrong = not rows_match(op.rows, _expected(op, oracle.answer(op.sql)))
