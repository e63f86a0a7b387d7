"""CLI for the admission service.

Subcommands::

    python -m repro.serve serve  --system system.json [--port 0 ...]
    python -m repro.serve client --port 40123 --op ping
    python -m repro.serve client --port 40123 --script burst.json

``serve`` prints one machine-readable ``LISTENING <host> <port>`` line
once the socket is bound (the CI smoke job reads it to find the
ephemeral port), then runs until a ``shutdown`` request arrives.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from repro.serve.client import ServeClient, load_script, run_script
from repro.serve.protocol import ProtocolError
from repro.serve.server import AdmissionServer, ServeConfig, load_system_file
from repro.tasks.serialization import canonical_json


def _cmd_serve(args: argparse.Namespace) -> int:
    payload = load_system_file(args.system)
    config = ServeConfig.from_system_payload(
        payload,
        host=args.host,
        port=args.port,
        shards=args.shards,
        backend=args.backend,
        epoch_interval=args.epoch_interval,
        queue_limit=args.queue_limit,
    )

    async def _main() -> None:
        server = AdmissionServer(config)
        await server.start()
        print(f"LISTENING {config.host} {server.port}", flush=True)
        await server.serve_until_shutdown()

    asyncio.run(_main())
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    if (args.op is None) == (args.script is None):
        print(
            "client: exactly one of --op / --script is required",
            file=sys.stderr,
        )
        return 2
    if args.script is not None:
        requests = load_script(args.script)
        responses = run_script(args.host, args.port, requests)
        for response in responses:
            print(canonical_json(response))
        return 0 if all(r.get("ok") for r in responses) else 1
    message: Dict[str, Any] = {"op": args.op}
    if args.data:
        extra = json.loads(args.data)
        if not isinstance(extra, dict):
            print("client: --data must be a JSON object", file=sys.stderr)
            return 2
        message.update(extra)
    with ServeClient(args.host, args.port) as client:
        response = client.request(message)
    if args.op == "log" and response.get("ok"):
        # Print the raw decision-log lines: the byte-comparable artifact.
        for line in response["log"]:
            print(line)
        return 0
    print(canonical_json(response))
    return 0 if response.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Admission service: server and client.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run an admission server")
    serve.add_argument("--system", required=True, help="system JSON file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--backend", choices=("process", "inline"), default="process"
    )
    serve.add_argument("--epoch-interval", type=float, default=0.01)
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser("client", help="drive a running server")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--op", help="single operation to send")
    client.add_argument(
        "--data", help="JSON object merged into the single request"
    )
    client.add_argument("--script", help="JSON file with a request list")
    client.set_defaults(func=_cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
