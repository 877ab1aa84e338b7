"""The benchmark's three workloads: set-up, seeded op schedules, execution.

Every workload runs the full protection stack (whole-FS rollback guard
over ROTE counters, write-ahead journal, 512 KiB metadata cache, guard
batching, the paper's enclave ACL authorization).  Each issues three op
classes, so every end-to-end metric exists on every workload:

* ``read``  — a file download, checked against the SHA-256 of the last
  acknowledged write of that path;
* ``write`` — an overwrite of an existing file;
* ``admin`` — a membership or permission change, checked against the
  status it must return.

A workload's schedule is a pure function of its seed; payloads are
derived with :func:`repro.bench.workloads.unique_bytes` before the timed
call, so content generation is never billed to the program.  A driver
thunk measures process CPU time around the one call into the program and
nothing else.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench.concurrency import ConcurrentDriver, parallel_env
from repro.bench.workloads import unique_bytes
from repro.cluster import ClusterDriver, build_cluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Response, Status
from repro.core.server import SeGShareServer, deploy
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.tls.channel import StreamingResponse

KIB = 1024
MIB = 1024 * KIB
CLASSES = ("read", "write", "admin")


def protection_options(**overrides: Any) -> SeGShareOptions:
    """The full protection stack every workload deploys."""
    return SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        journal=True,
        metadata_cache_bytes=512 * KIB,
        guard_batching=True,
        authz_backend="enclave_acl",
        **overrides,
    )


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass
class OpRecord:
    """One measured op: its class, outcome, CPU time and modelled latency."""

    cls: str
    outcome: str = "ok"  # "ok" | "failed" (raised or refused) | "wrong" (bad bytes)
    cpu_ns: int = 0
    #: Process CPU clock when the timed call began.
    cpu_start_ns: int = 0
    model_s: float = 0.0
    #: Modelled time of streaming a GET's content after the front door
    #: returned (cluster only; see ClusterRead.run).
    stream_model_s: float = 0.0
    detail: str = ""


@dataclass
class RunResult:
    records: list[OpRecord]
    makespan_s: float
    user_bytes_written: int
    #: The speed probe of an untraced run (see :mod:`segbench.speed`).
    probe: Any = None


@dataclass
class World:
    """One deployed system plus the harness's model of what it must hold."""

    clock: Any
    servers: list[SeGShareServer]
    #: Host-side handles on the untrusted object stores.
    backends: list[Any]
    #: path -> (SHA-256, size) of the last acknowledged write.
    expected: dict[str, tuple[bytes, int]] = field(default_factory=dict)
    links: list[Any] = field(default_factory=list)
    tls_clients: list[Any] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


def _timed(record: OpRecord, call: Callable[..., Any], *args: Any) -> Any:
    """Make an op's one call into the program, timing its process CPU.

    An exception the call raises is the op's outcome, not the harness's.
    """
    c0 = record.cpu_start_ns = time.process_time_ns()
    try:
        result = call(*args)
    except Exception as exc:  # the op's failure is the measurement
        result = None
        record.outcome, record.detail = "failed", f"{type(exc).__name__}: {exc}"
    record.cpu_ns = time.process_time_ns() - c0
    return result


class Workload:
    """Base class: a named, seeded workload with a calibrated op rate."""

    name = ""
    #: Ops per second of run length; calibrated on a 2-vCPU x86 VM so that
    #: one run's timed calls take about ``--seconds`` of CPU.  The count
    #: itself is fixed by the seed and the run length, which keeps the
    #: modelled metrics exactly repeatable.
    ops_per_second = 1.0
    #: Fewest ops of an end-to-end run: enough that each class has ten
    #: samples beyond its p95.
    min_ops = 0
    #: How many times an end-to-end run builds the system; ``setup_s`` is
    #: the median.  Each build makes several pure-Python RSA-1024 keys
    #: whose prime search takes 0.08-0.28 s, so workloads whose other
    #: set-up work is small build more often.
    setups = 3
    #: Size of each file the workload writes.
    file_size = 0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed

    def ops_for(self, seconds: float) -> int:
        return max(12, round(seconds * self.ops_per_second))

    def build(self) -> World:
        """Deploy the system and preload it."""
        raise NotImplementedError

    def plan(self, n_ops: int) -> list[Any]:
        raise NotImplementedError

    def run(self, world: World, plan: list[Any], trace: Any) -> RunResult:
        """Execute ``plan``; ``trace`` provides ``request(record)`` and
        ``glue()`` contexts (the tracer's, or no-ops in an untraced run)."""
        raise NotImplementedError

    def sweep(self, world: World) -> list[OpRecord]:
        raise NotImplementedError

    def _tag(self, what: str) -> str:
        return f"segbench/{self.name}/{self.seed}/{what}"

    def size_of(self, path: str) -> int:
        return self.file_size

    def _drive(
        self,
        world: World,
        plan: list[list[tuple]],
        issue: Callable[[int, tuple], Callable[..., Any]],
        trace: Any,
        driver: Any,
    ) -> RunResult:
        """Run per-client op lists through a closed-loop multi-client driver.

        ``issue(c, op)`` returns the one call into the program for the op;
        the thunk times it and, as glue, derives the payload before and
        checks the outcome after.  ``ConcurrentDriver`` runs thunks inside
        its switchless dispatch, which is then the request's root span;
        ``ClusterDriver`` runs them outside the front door and passes the
        arrival time, so the thunk's ``trace.request`` opens the root.
        """
        records: dict[tuple[int, int], OpRecord] = {}
        written = [0]

        def thunk(c: int, k: int, op: tuple) -> Callable[..., None]:
            call = issue(c, op)

            def run_op(*arrival: float) -> None:
                with trace.glue():
                    data = (
                        unique_bytes(self._tag("w"), op[3], self.size_of(op[2]))
                        if op[1] == "put"
                        else None
                    )
                record = OpRecord(op[0])
                with trace.request(record):
                    result = _timed(record, call, data, *arrival)
                with trace.glue():
                    written[0] += _settle(world, op, data, result, record)
                records[(c, k)] = record
                with trace.glue():
                    trace.after_op()

            return run_op

        clients = [[thunk(c, k, op) for k, op in enumerate(ops)] for c, ops in enumerate(plan)]
        result = driver.run(clients)
        for op in result.ops:
            record = records[(op.client, op.index)]
            record.model_s = op.latency + record.stream_model_s
        return RunResult([records[key] for key in sorted(records)], result.makespan, written[0])


def _check_read(world: World, path: str, data: bytes, record: OpRecord) -> None:
    want, size = world.expected[path]
    if len(data) != size or digest(data) != want:
        record.outcome = "wrong"
        record.detail = f"{path}: {len(data)} bytes, digest mismatch"


def _status_of(response: Any) -> Status:
    if isinstance(response, StreamingResponse):
        return Response.deserialize(response.header).status
    return response.status


def _stratified(rng: random.Random, count: int, shares: dict[str, float]) -> list[str]:
    """``count`` kinds in exactly the given shares (largest remainder), shuffled.

    Every client then issues the same mix, so seeds differ only in order
    and targets, not in how much work each client's chain holds.
    """
    exact = {kind: share * count for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: exact[kind] - counts[kind], reverse=True)
    for kind in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def _zipf_cdf(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    return list(itertools.accumulate(weights))


# -- bulk_transfer ---------------------------------------------------------------------


class BulkTransfer(Workload):
    """Fig. 3 shape: 1 MiB up/downloads over two TLS connections on the WAN."""

    name = "bulk_transfer"
    ops_per_second = 22.2
    #: 200 per class: the transfers cost ~27 s of CPU, so at run lengths
    #: under that the workload runs longer than ``--seconds``.
    min_ops = 600
    setups = 4

    files = 16
    file_size = MIB

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        if tiny:
            self.files, self.file_size, self.min_ops = 4, 64 * KIB, 0

    def paths(self) -> list[str]:
        return [f"/bulk/f{i:02d}" for i in range(self.files)]

    def build(self) -> World:
        env = azure_wan_env(jitter=0.05, seed=self.seed)
        ca = CertificateAuthority(key_bits=1024)
        deployment = deploy(env=env, options=protection_options(), ca=ca)
        owner = deployment.new_user("owner")
        member = deployment.new_user("member")
        owner.add_user("member", "team")
        owner.add_user("keeper", "guests")
        owner.mkdir("/bulk/")
        owner.set_permission("/bulk/", "team", "rw")
        server = deployment.server
        world = World(
            clock=env.clock,
            servers=[server],
            backends=[server.stores.content, server.stores.group, server.stores.dedup],
            links=[env.link],
            tls_clients=[owner._tls, member._tls],
            extra={"owner": owner, "member": member, "guest_in": False},
        )
        for index, path in enumerate(self.paths()):
            data = unique_bytes(self._tag("init"), index, self.file_size)
            owner.upload(path, data)
            owner.set_inherit(path, True)
            world.expected[path] = (digest(data), len(data))
        # Warm-up: the member reads every file once (fills the metadata
        # cache and checks the preload).
        for path in self.paths():
            record = OpRecord("read")
            _check_read(world, path, member.download(path), record)
            if record.outcome != "ok":
                raise RuntimeError(f"preload check failed: {record.detail}")
        return world

    def plan(self, n_ops: int) -> list[tuple[str, int]]:
        """(class, file index) per op.

        Uploads, downloads and the owner's membership changes (Fig. 4's
        op) come in equal numbers, so each class has as many samples as
        the transfers' CPU cost allows in a run.
        """
        rng = random.Random(self.seed)
        classes = [CLASSES[i % 3] for i in range(n_ops)]
        rng.shuffle(classes)
        return [(cls, rng.randrange(self.files)) for cls in classes]

    def run(self, world: World, plan: list[Any], trace: Any) -> RunResult:
        owner, member = world.extra["owner"], world.extra["member"]
        clock = world.clock
        paths = self.paths()
        records = []
        written = 0
        begin = clock.now()
        for index, (cls, file_index) in enumerate(plan):
            path = paths[file_index]
            record = OpRecord(cls)
            adding = not world.extra["guest_in"]
            if cls == "write":
                data = unique_bytes(self._tag("w"), index, self.file_size)
                call, args = owner.upload, (path, data)
            elif cls == "read":
                call, args = member.download, (path,)
            else:
                call = owner.add_user if adding else owner.remove_user
                args = ("guest", "guests")
            with trace.request(record):
                m0 = clock.now()
                result = _timed(record, call, *args)
                record.model_s = clock.now() - m0
            if record.outcome == "ok":
                if cls == "write":
                    world.expected[path] = (digest(data), len(data))
                    written += len(data)
                elif cls == "read":
                    _check_read(world, path, result, record)
                else:
                    world.extra["guest_in"] = adding
            records.append(record)
            trace.after_op()
        return RunResult(records, clock.now() - begin, written)

    def sweep(self, world: World) -> list[OpRecord]:
        member = world.extra["member"]
        out = []
        for path in sorted(world.expected):
            record = OpRecord("read")
            try:
                _check_read(world, path, member.download(path), record)
            except Exception as exc:
                record.outcome, record.detail = "failed", f"{type(exc).__name__}: {exc}"
            out.append(record)
        return out


# -- shared helpers for the RequestHandler-boundary workloads --------------------------


def _expect_ok(response: Any, record: OpRecord) -> bool:
    status = _status_of(response)
    if status is not Status.OK:
        record.outcome = "failed"
        record.detail = f"status {status.name}: {getattr(response, 'message', '')}"
        return False
    return True


def _drain(response: Any) -> bytes:
    """A GET's content: a streamed body is drained (decrypted) here."""
    if isinstance(response, StreamingResponse):
        return b"".join(response.chunks)
    return response.payload


# -- team_share -------------------------------------------------------------------------


class TeamShare(Workload):
    """Fig. 4 and a metadata-heavy mix: 8 closed-loop clients on 4
    switchless workers at the ``RequestHandler`` boundary, driven by
    ``ConcurrentDriver``.

    With one worker per client, about half of the writes waited for a
    commit epoch and half did not, so the modelled write p50 fell on
    one side of that gap or the other depending on the seed (0.69 or
    1.05 ms).  With 4 workers, worker and lock waits put the write p50
    well inside the waiting writes.
    """

    name = "team_share"
    ops_per_second = 268.0
    #: A build preloads 1024 files (~5 s of CPU); keygen noise is small
    #: beside that, so two builds keep ``setup_s`` steady.
    setups = 2

    clients = 8
    workers = 4
    dirs = 8
    files_per_dir = 128
    file_size = 4000
    read_share = 0.70
    write_share = 0.15
    zipf_s = 1.1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        if tiny:
            self.dirs, self.files_per_dir = 2, 8

    def paths(self) -> list[str]:
        return [
            f"/d{d}/f{f:03d}" for d in range(self.dirs) for f in range(self.files_per_dir)
        ]

    def build(self) -> World:
        ca = CertificateAuthority(key_bits=1024)
        server = SeGShareServer(
            parallel_env(seed=self.seed),
            ca.public_key,
            options=protection_options(switchless_workers=self.workers),
        )
        handler = server.enclave.handler
        world = World(
            clock=server.env.clock,
            servers=[server],
            backends=[server.stores.content, server.stores.group, server.stores.dedup],
            extra={"server": server},
        )

        def setup(user: str, op: Op, *args: str) -> None:
            response = handler.handle(user, Request(op=op, args=args))
            if response.status is not Status.OK:
                raise RuntimeError(f"setup {op.name} {args}: {response.message}")

        for c in range(self.clients):
            setup("owner", Op.ADD_USER, f"u{c}", "team")
        setup("owner", Op.ADD_USER, "keeper", "guests")
        for index, path in enumerate(self.paths()):
            directory = path[: path.rindex("/") + 1]
            if path.endswith("/f000"):
                setup("owner", Op.PUT_DIR, directory)
                setup("owner", Op.SET_PERM, directory, "team", "rw")
            data = unique_bytes(self._tag("init"), index, self.file_size)
            response = handler.put_file("owner", path, data)
            if response.status is not Status.OK:
                raise RuntimeError(f"preload {path}: {response.message}")
            setup("owner", Op.SET_INHERIT, path, "1")
            world.expected[path] = (digest(data), len(data))
        # Warm-up: each client reads a few files (checks the preload).
        for c, path in enumerate(self.paths()[:: max(1, len(self.paths()) // 64)]):
            record = OpRecord("read")
            response = handler.handle(f"u{c % self.clients}", Request(op=Op.GET, args=(path,)))
            if _expect_ok(response, record):
                _check_read(world, path, _drain(response), record)
            if record.outcome != "ok":
                raise RuntimeError(f"preload check failed: {record.detail}")
        return world

    def plan(self, n_ops: int) -> list[list[tuple]]:
        """Per client, its ordered ops: (class, action, path, arg)."""
        rng = random.Random(self.seed)
        paths = self.paths()
        # Popularity rank r is file r // dirs of directory r % dirs: the hot
        # set is the same for every seed and spread over all directories,
        # so seeds differ only by the sampled op sequence.
        ranked = [
            paths[(rank % self.dirs) * self.files_per_dir + rank // self.dirs]
            for rank in range(len(paths))
        ]
        cdf = _zipf_cdf(len(ranked), self.zipf_s)
        total = cdf[-1]

        def zipf_path() -> str:
            return ranked[min(bisect.bisect_left(cdf, rng.random() * total), len(ranked) - 1)]

        per_client = [n_ops // self.clients + (c < n_ops % self.clients) for c in range(self.clients)]
        plan: list[list[tuple]] = []
        admin_share = 1 - self.read_share - self.write_share
        shares = {
            "get": self.read_share,
            "put": self.write_share,
            # add and remove : set_permission = 2 : 1
            "member": admin_share * 2 / 3,
            "set_perm": admin_share / 3,
        }
        for c, count in enumerate(per_client):
            ops: list[tuple] = []
            guest_in = False
            for k, kind in enumerate(_stratified(rng, count, shares)):
                if kind == "get":
                    ops.append(("read", "get", zipf_path(), None))
                elif kind == "put":
                    ops.append(("write", "put", zipf_path(), c * 1_000_000 + k))
                elif kind == "member":
                    action = "rmv_user" if guest_in else "add_user"
                    guest_in = not guest_in
                    ops.append(("admin", action, f"guest{c}", "guests"))
                else:
                    perms = rng.choice(("r", "rw"))
                    ops.append(("admin", "set_perm", rng.choice(paths), perms))
            plan.append(ops)
        return plan

    def run(self, world: World, plan: list[Any], trace: Any) -> RunResult:
        handler = world.extra["server"].enclave.handler

        def issue(c: int, op: tuple) -> Callable[..., Any]:
            cls, action, target, arg = op
            user = f"u{c}"
            if action == "get":
                request = Request(op=Op.GET, args=(target,))

                def get(data: None) -> tuple[Any, bytes]:
                    response = handler.handle(user, request)
                    return response, _drain(response)

                return get
            if action == "put":
                return lambda data: handler.put_file(user, target, data)
            if action == "set_perm":
                request = Request(op=Op.SET_PERM, args=(target, "guests", arg))
            else:
                code = Op.ADD_USER if action == "add_user" else Op.RMV_USER
                request = Request(op=code, args=(target, arg))
            return lambda data: handler.handle("owner", request)

        return self._drive(world, plan, issue, trace, ConcurrentDriver(world.extra["server"]))

    def sweep(self, world: World) -> list[OpRecord]:
        handler = world.extra["server"].enclave.handler
        out = []
        for path in sorted(world.expected):
            record = OpRecord("read")
            try:
                response = handler.handle("u0", Request(op=Op.GET, args=(path,)))
                if _expect_ok(response, record):
                    _check_read(world, path, _drain(response), record)
            except Exception as exc:
                record.outcome, record.detail = "failed", f"{type(exc).__name__}: {exc}"
            out.append(record)
        return out


def _settle(world: World, op: tuple, data: bytes | None, result: Any, record: OpRecord) -> int:
    """Check one op's outcome and update the model of acknowledged writes.

    Returns the user bytes the op wrote.
    """
    if record.outcome != "ok":
        return 0
    action, target = op[1], op[2]
    if action == "get":
        response, body = result[:2]
        if len(result) > 2:
            record.stream_model_s = result[2]
        if _expect_ok(response, record):
            _check_read(world, target, body, record)
    elif _expect_ok(result, record) and data is not None:
        world.expected[target] = (digest(data), len(data))
        return len(data)
    return 0


# -- cluster_read -----------------------------------------------------------------------


class ClusterRead(Workload):
    """Fits-in-cache reads through a 3-replica cluster with coherence on.

    Each replica runs 2 switchless workers, 6 for 8 clients: the replica
    that placement gives the most clients queues them, so routing skew
    shows in ``model_ops_per_s``.  (With 4 workers no replica ever
    queued, and whether a read met a spinning or a parked worker split
    the modelled read p50 between two values from seed to seed.)
    """

    name = "cluster_read"
    ops_per_second = 1330.0
    setups = 5

    clients = 8
    files_per_client = 8
    read_share = 0.85
    write_share = 0.10

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        if tiny:
            self.files_per_client = 2
        # 3500-4000 B.  Cached reads cost a fixed amount of modelled time
        # per byte, so drawing sizes from the seed is what makes the
        # modelled read latency depend on the input.  Every file stays in
        # one 4096 B protected-FS chunk: with sizes across that boundary,
        # the seed's share of two-chunk files moved the modelled read p50
        # between two modes ~20% apart.
        rng = random.Random(f"{seed}/sizes")
        self.sizes = {
            path: rng.randint(3500, 4000)
            for c in range(self.clients)
            for path in self.paths(c)
        }

    def paths(self, c: int) -> list[str]:
        return [f"/c{c}/f{f}" for f in range(self.files_per_client)]

    def size_of(self, path: str) -> int:
        return self.sizes[path]

    def build(self) -> World:
        ca = CertificateAuthority(key_bits=1024)
        deployment = build_cluster(
            replicas=3,
            parallel=True,
            options=protection_options(rollback_buckets=8, switchless_workers=2),
            ca=ca,
            seed=self.seed,
        )
        cluster = deployment.cluster
        world = World(
            clock=deployment.env.clock,
            servers=list(deployment.servers.values()),
            backends=[deployment.backend],
            extra={"cluster": cluster, "deployment": deployment},
        )

        def setup(user: str, op: Op, *args: str) -> None:
            response = cluster.handle(user, Request(op=op, args=args))
            if response.status is not Status.OK:
                raise RuntimeError(f"setup {op.name} {args}: {response.message}")

        for c in range(self.clients):
            setup(f"u{c}", Op.PUT_DIR, f"/c{c}/")
            setup(f"u{c}", Op.ADD_USER, f"keeper{c}", f"grp{c}")
            for f, path in enumerate(self.paths(c)):
                data = unique_bytes(self._tag("init"), c * 1000 + f, self.size_of(path))
                response = cluster.put_file(f"u{c}", path, data)
                if response.status is not Status.OK:
                    raise RuntimeError(f"preload {path}: {response.message}")
                world.expected[path] = (digest(data), len(data))
        # Warm-up: every file read once through the front door.
        for c in range(self.clients):
            for path in self.paths(c):
                record = OpRecord("read")
                response = cluster.handle(f"u{c}", Request(op=Op.GET, args=(path,)))
                if _expect_ok(response, record):
                    _check_read(world, path, _drain(response), record)
                if record.outcome != "ok":
                    raise RuntimeError(f"preload check failed: {record.detail}")
        return world

    def plan(self, n_ops: int) -> list[list[tuple]]:
        rng = random.Random(self.seed)
        per_client = [n_ops // self.clients + (c < n_ops % self.clients) for c in range(self.clients)]
        plan: list[list[tuple]] = []
        shares = {
            "get": self.read_share,
            "put": self.write_share,
            "member": 1 - self.read_share - self.write_share,
        }
        for c, count in enumerate(per_client):
            ops: list[tuple] = []
            guest_in = False
            for k, kind in enumerate(_stratified(rng, count, shares)):
                path = rng.choice(self.paths(c))
                if kind == "get":
                    ops.append(("read", "get", path, None))
                elif kind == "put":
                    ops.append(("write", "put", path, c * 1_000_000 + k))
                else:
                    action = "rmv_user" if guest_in else "add_user"
                    guest_in = not guest_in
                    ops.append(("admin", action, f"guest{c}", f"grp{c}"))
            plan.append(ops)
        return plan

    def run(self, world: World, plan: list[Any], trace: Any) -> RunResult:
        """Drive the plan through the front door.

        ``SeGShareCluster.handle`` closes the request's track when it
        returns, but a GET's content is decrypted while the returned
        stream is drained, on the base timeline.  The client has the file
        only then, so a GET's modelled latency is its track's plus that
        streaming time, measured on the base clock around the drain.
        """
        cluster = world.extra["cluster"]
        clock = world.clock

        def issue(c: int, op: tuple) -> Callable[..., Any]:
            cls, action, target, arg = op
            user = f"u{c}"
            if action == "put":
                return lambda data, arrival: cluster.put_file(user, target, data, arrival=arrival)
            if action == "get":
                request = Request(op=Op.GET, args=(target,))

                def get(data: None, arrival: float) -> tuple[Any, bytes, float]:
                    response = cluster.handle(user, request, arrival=arrival)
                    start = clock.now()
                    body = _drain(response)
                    return response, body, clock.now() - start

                return get
            code = Op.ADD_USER if action == "add_user" else Op.RMV_USER
            request = Request(op=code, args=(target, arg))
            return lambda data, arrival: cluster.handle(user, request, arrival=arrival)

        return self._drive(world, plan, issue, trace, ClusterDriver(cluster))

    def sweep(self, world: World) -> list[OpRecord]:
        cluster = world.extra["cluster"]
        out = []
        for path in sorted(world.expected):
            record = OpRecord("read")
            user = "u" + path.split("/")[1][1:]
            try:
                response = cluster.handle(user, Request(op=Op.GET, args=(path,)))
                if _expect_ok(response, record):
                    _check_read(world, path, _drain(response), record)
            except Exception as exc:
                record.outcome, record.detail = "failed", f"{type(exc).__name__}: {exc}"
            out.append(record)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BulkTransfer, TeamShare, ClusterRead)
}
