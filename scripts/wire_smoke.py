#!/usr/bin/env python3
"""Cross-language smoke test of the GATW wire protocol.

Speaks the protocol from an independent implementation (struct.pack +
zlib.crc32 — no shared code with the C++ codec), so a framing bug that
two copies of the same serializer would cancel out gets caught here:

  1. start ./build/apps/gat_server, wait for "LISTENING <port>",
  2. send a well-formed request, check the response frame end to end
     (magic, version, type, CRC, full payload parse with no trailing
     bytes, status/shed cross-field discipline),
  3. send a corrupted frame, then a version-1 frame, each on a fresh
     connection, and expect a clean EOF with zero bytes — never a
     crash, never a partial frame,
  4. send an ingest frame interleaved with a request on one session;
     the ack must decode under the ingest cross-field rules and come
     back before the query answer (arrival order),
  5. send a structurally absurd ingest frame (valid CRC), expect the
     same clean zero-byte close from the ingest decoder,
  6. close the server's stdin and expect exit code 0,
  7. start it with an out-of-range port, zero shards and a non-numeric
     value in turn; each must exit 2 with the usage text, before
     binding anything.

Usage: scripts/wire_smoke.py [path/to/gat_server]
Exit code 0 = all checks passed.
"""

import socket
import struct
import subprocess
import sys
import zlib

MAGIC = b"GATW"
VERSION = 2
FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_INGEST = 3
FRAME_INGEST_ACK = 4
HEADER = struct.Struct("<4sIIII")  # magic, version, type, length, crc32

STATUS_OK = 0
STATUS_SHED = 1
STATUS_DEADLINE = 2
SHED_NONE = 0
SHED_WRITE_RATE_LIMIT = 2
INGEST_OK = 0
INGEST_SHED = 1
INGEST_INVALID = 2
INGEST_UNAVAILABLE = 3
NUM_STAT_COUNTERS = 13  # u64 counters before the trailing elapsed_ms f64


def build_frame(frame_type: int, payload: bytes, version=VERSION) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return HEADER.pack(MAGIC, version, frame_type, len(payload), crc) + payload


def build_request(tenant=7, priority=0, kind=0, k=3, deadline=0,
                  version=VERSION) -> bytes:
    # One query, two points, activities strictly ascending — the normal
    # form the decoder demands.
    payload = struct.pack("<IIIIQI", tenant, priority, kind, k, deadline, 1)
    points = [((1.0, 2.0), [0, 3, 5]), ((-0.5, 4.25), [1])]
    payload += struct.pack("<I", len(points))
    for (x, y), activities in points:
        payload += struct.pack("<ddI", x, y, len(activities))
        payload += struct.pack(f"<{len(activities)}I", *activities)
    return build_frame(FRAME_REQUEST, payload, version)


def build_ingest(tenant=7) -> bytes:
    # Three check-ins in the middle of the synthetic city (its ingest
    # frame is the empirical 20x20km MBR, so mid-city points are always
    # inside it), activities strictly ascending — the normal form the
    # decoder demands.
    checkins = [
        (501, (10.0, 10.0), [0, 3, 5]),
        (502, (9.5, 10.25), [1]),
        (501, (10.5, 9.0), [2, 4]),
    ]
    payload = struct.pack("<II", tenant, len(checkins))
    for user, (x, y), activities in checkins:
        payload += struct.pack("<QddI", user, x, y, len(activities))
        payload += struct.pack(f"<{len(activities)}I", *activities)
    return build_frame(FRAME_INGEST, payload)


def check_ingest_ack(raw_header: bytes, sock: socket.socket) -> None:
    magic, version, frame_type, length, crc = HEADER.unpack(raw_header)
    assert magic == MAGIC, f"bad magic {magic!r}"
    assert version == VERSION, f"bad version {version}"
    assert frame_type == FRAME_INGEST_ACK, f"bad frame type {frame_type}"
    payload = recv_exact(sock, length)
    assert zlib.crc32(payload) & 0xFFFFFFFF == crc, "payload CRC mismatch"
    assert length == 28, f"ingest ack must be 28 bytes, got {length}"
    status, shed_reason, shed_tenant, accepted, watermark = struct.unpack(
        "<IIIQQ", payload
    )
    # Cross-field discipline, mirrored from the C++ decoder: a shed ack
    # names the write limiter and its tenant; any other status carries
    # neither. Acceptance counts exist only on success.
    assert status in (INGEST_OK, INGEST_SHED, INGEST_INVALID, INGEST_UNAVAILABLE)
    if status == INGEST_SHED:
        assert shed_reason == SHED_WRITE_RATE_LIMIT, shed_reason
    else:
        assert shed_reason == SHED_NONE and shed_tenant == 0
    if status == INGEST_OK:
        assert accepted == 3 and watermark >= accepted, (accepted, watermark)
    else:
        assert accepted == 0 and watermark == 0, (accepted, watermark)
    # This smoke server has an attached live index and fresh write
    # quota, so the batch must actually land.
    assert status == INGEST_OK, f"smoke ingest unexpectedly refused: {status}"


def recv_exact(sock: socket.socket, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError(f"EOF after {len(data)}/{size} bytes")
        data += chunk
    return data


def check_response(raw_header: bytes, sock: socket.socket) -> None:
    magic, version, frame_type, length, crc = HEADER.unpack(raw_header)
    assert magic == MAGIC, f"bad magic {magic!r}"
    assert version == VERSION, f"bad version {version}"
    assert frame_type == FRAME_RESPONSE, f"bad frame type {frame_type}"
    payload = recv_exact(sock, length)
    assert zlib.crc32(payload) & 0xFFFFFFFF == crc, "payload CRC mismatch"

    # Full parse: every declared length must line up with the payload
    # end, exactly — the same reject-or-bit-exact discipline as C++.
    off = 0

    def read(fmt):
        nonlocal off
        s = struct.Struct(fmt)
        values = s.unpack_from(payload, off)
        off += s.size
        return values if len(values) > 1 else values[0]

    status = read("<I")
    shed_reason = read("<I")
    shed_tenant = read("<I")
    deadline_exceeded = read("<Q")
    num_queries = read("<I")
    assert status in (STATUS_OK, STATUS_SHED, STATUS_DEADLINE), status
    if status == STATUS_SHED:
        assert shed_reason != SHED_NONE and num_queries == 0
    else:
        assert shed_reason == SHED_NONE and shed_tenant == 0
    expired_statuses = 0
    for _ in range(num_queries):
        query_status = read("<I")
        assert query_status in (0, 1), query_status
        expired_statuses += query_status == 1
        num_results = read("<I")
        for _ in range(num_results):
            trajectory = read("<I")
            distance = read("<d")
            assert distance >= 0.0, (trajectory, distance)
    if num_queries:
        assert deadline_exceeded == expired_statuses
    read(f"<{NUM_STAT_COUNTERS}Q")  # SearchStats counters
    read("<d")  # elapsed_ms
    assert off == len(payload), f"{len(payload) - off} trailing bytes"
    assert status == STATUS_OK, f"smoke request unexpectedly not served: {status}"
    assert num_queries == 1, num_queries


def expect_clean_close(port: int, frame: bytes) -> None:
    # The server must close the session without sending a single byte.
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(frame)
        sock.settimeout(10)
        leaked = sock.recv(1)
        assert leaked == b"", f"server sent {leaked!r} after a bad frame"


def check_flag_rejected(server_bin: str, flags: list) -> None:
    # A bad flag value must never be clamped, wrapped or read as 0: the
    # server refuses before it builds or binds anything.
    proc = subprocess.run(
        [server_bin, *flags],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 2, f"{flags}: exit code {proc.returncode}"
    assert proc.stdout == b"", f"{flags}: stdout {proc.stdout!r}"
    assert b"usage: gat_server" in proc.stderr, f"{flags}: {proc.stderr!r}"


def main() -> int:
    server_bin = sys.argv[1] if len(sys.argv) > 1 else "build/apps/gat_server"
    for flags in (["--port", "70000"], ["--shards", "0"],
                  ["--trajectories", "many"]):
        check_flag_rejected(server_bin, flags)
    print("wire_smoke: bad flag values rejected (exit 2)")
    proc = subprocess.Popen(
        [server_bin, "--trajectories", "100", "--seed", "29"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        banner = proc.stdout.readline().decode()
        assert banner.startswith("LISTENING "), f"bad banner {banner!r}"
        port = int(banner.split()[1])

        # --- a well-formed request round trip -------------------------
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(build_request())
            check_response(recv_exact(sock, HEADER.size), sock)
        print("wire_smoke: request/response OK")

        # --- a corrupted frame: clean close, zero bytes ---------------
        bad = bytearray(build_request())
        bad[HEADER.size + 3] ^= 0x20  # flip one payload bit
        expect_clean_close(port, bytes(bad))
        print("wire_smoke: corrupt frame closed cleanly")

        # --- a version-1 frame: refused at the header, same close -----
        expect_clean_close(port, build_request(version=1))
        print("wire_smoke: version-1 frame closed cleanly")

        # --- and the server is still alive afterwards -----------------
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(build_request())
            check_response(recv_exact(sock, HEADER.size), sock)
        print("wire_smoke: server alive after corruption")

        # --- a well-formed ingest round trip --------------------------
        # Serve and ingest frames interleave on one session: the ingest
        # ack must come back first, then the query answer, in arrival
        # order.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(build_ingest() + build_request())
            check_ingest_ack(recv_exact(sock, HEADER.size), sock)
            check_response(recv_exact(sock, HEADER.size), sock)
        print("wire_smoke: ingest/ack OK")

        # --- a corrupted ingest frame: clean close, zero bytes --------
        # Valid CRC over a structurally absurd payload (a check-in count
        # with no check-ins behind it), so the close comes from the
        # ingest decoder itself, not the checksum gate the serve-side
        # case above already exercises.
        bad = build_frame(FRAME_INGEST, struct.pack("<II", 7, 0xFFFFFFFF))
        expect_clean_close(port, bad)
        print("wire_smoke: corrupt ingest closed cleanly")

        # --- serve path unaffected by the dead ingest session ---------
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(build_request())
            check_response(recv_exact(sock, HEADER.size), sock)
        print("wire_smoke: server alive after ingest corruption")
    finally:
        proc.stdin.close()
        code = proc.wait(timeout=30)
    assert code == 0, f"gat_server exit code {code}"
    print("wire_smoke: clean shutdown (exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
