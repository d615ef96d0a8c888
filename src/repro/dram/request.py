"""Memory request records exchanged between the CPU side and controllers.

Both record types are slotted plain classes rather than dataclasses:
one :class:`MemoryRequest` (plus a :class:`DecodedAddress`) is allocated
per DRAM access, and the controller touches its fields on every
scheduling tick, so avoiding per-instance ``__dict__`` allocation and
generated-method dispatch is a measurable kernel win. ``is_read`` is
frozen to a plain attribute at construction for the same reason.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

WORDS_PER_LINE = 8
WORD_BYTES = 8
LINE_BYTES = WORDS_PER_LINE * WORD_BYTES


class RequestIdAllocator:
    """Process-wide request-id counter with an inspectable position.

    Request ids break FR-FCFS arrival-time ties, so the id stream is
    part of simulation determinism. Unlike ``itertools.count`` the
    position can be read out and restored, which is what lets a resumed
    checkpoint hand out the same ids an uninterrupted run would have.
    """

    __slots__ = ("next_id",)

    def __init__(self, next_id: int = 0) -> None:
        self.next_id = next_id

    def allocate(self) -> int:
        value = self.next_id
        self.next_id = value + 1
        return value


_request_ids = RequestIdAllocator()


def request_id_allocator() -> RequestIdAllocator:
    """The process-wide allocator (checkpoint save/restore handle)."""
    return _request_ids


class RequestKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class DecodedAddress:
    """Physical address decomposed by an :class:`AddressMapper`."""

    __slots__ = ("channel", "rank", "bank", "row", "column")

    def __init__(self, channel: int, rank: int, bank: int, row: int,
                 column: int) -> None:
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.row = row
        self.column = column

    def __repr__(self) -> str:
        return (f"DecodedAddress(channel={self.channel}, rank={self.rank}, "
                f"bank={self.bank}, row={self.row}, column={self.column})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodedAddress):
            return NotImplemented
        return (self.channel == other.channel and self.rank == other.rank
                and self.bank == other.bank and self.row == other.row
                and self.column == other.column)

    def __hash__(self) -> int:
        return hash((self.channel, self.rank, self.bank, self.row,
                     self.column))


class MemoryRequest:
    """One cache-line-granularity DRAM access.

    ``critical_word`` is the word (0-7) the CPU actually asked for; the
    controller reorders the burst so it is transferred first (conventional
    CWF) and the heterogeneous system uses it to decide whether the
    RLDRAM part can serve the wake-up.

    Completion is signalled through two callbacks:

    * ``on_critical_word(time)`` — the requested word is at the CPU.
    * ``on_complete(time)`` — the whole line transfer is done.
    """

    __slots__ = (
        "kind", "address", "critical_word", "is_prefetch", "core_id",
        "arrival_time", "request_id", "decoded", "on_critical_word",
        "on_complete", "first_command_time", "data_start_time",
        "critical_word_time", "completion_time", "promoted", "is_read",
        "enqueue_seq",
    )

    def __init__(self, kind: RequestKind, address: int,
                 critical_word: int = 0, is_prefetch: bool = False,
                 core_id: int = 0, arrival_time: int = 0,
                 request_id: Optional[int] = None,
                 decoded: Optional[DecodedAddress] = None,
                 on_critical_word: Optional[Callable[[int], None]] = None,
                 on_complete: Optional[Callable[[int], None]] = None) -> None:
        if not 0 <= critical_word < WORDS_PER_LINE:
            raise ValueError(f"critical_word must be 0..7, got {critical_word}")
        if address < 0:
            raise ValueError("address must be non-negative")
        self.kind = kind
        self.address = address
        self.critical_word = critical_word
        self.is_prefetch = is_prefetch
        self.core_id = core_id
        self.arrival_time = arrival_time
        self.request_id = (_request_ids.allocate() if request_id is None
                           else request_id)
        self.decoded = decoded
        self.on_critical_word = on_critical_word
        self.on_complete = on_complete
        # --- set by the controller as the request moves through ---
        self.first_command_time: Optional[int] = None
        self.data_start_time: Optional[int] = None
        self.critical_word_time: Optional[int] = None
        self.completion_time: Optional[int] = None
        # Promotion flag: an aged prefetch is treated as a demand (Sec 5).
        self.promoted = False
        self.is_read = kind is RequestKind.READ
        # Position in the controller queue's order, set on enqueue.
        self.enqueue_seq = 0

    def __repr__(self) -> str:
        return (f"MemoryRequest(kind={self.kind}, address={self.address:#x}, "
                f"critical_word={self.critical_word}, "
                f"is_prefetch={self.is_prefetch}, core_id={self.core_id}, "
                f"request_id={self.request_id})")

    @property
    def line_address(self) -> int:
        return self.address // LINE_BYTES

    @property
    def queue_latency(self) -> Optional[int]:
        """Cycles the request waited before its first DRAM command."""
        if self.first_command_time is None:
            return None
        return self.first_command_time - self.arrival_time

    @property
    def core_latency(self) -> Optional[int]:
        """Cycles from first DRAM command to critical word delivery."""
        if self.first_command_time is None or self.critical_word_time is None:
            return None
        return self.critical_word_time - self.first_command_time

    @property
    def total_latency(self) -> Optional[int]:
        if self.critical_word_time is None:
            return None
        return self.critical_word_time - self.arrival_time
