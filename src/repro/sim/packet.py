"""Packet representation.

A single slotted class covers data packets, ACKs and trimmed headers.
Slots keep per-packet overhead low — the simulator allocates one object
per packet transmission (retransmissions allocate a fresh packet).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Size of an ACK / NACK / trimmed header on the wire, in bytes.
CONTROL_PACKET_BYTES = 64


class Packet:
    """A network packet (data, ACK, NACK, or trimmed header).

    Attributes:
        src, dst:   endpoint host ids.
        flow_id:    flow this packet belongs to.
        seq:        data sequence number (packet index within the message).
        size:       bytes on the wire.
        ev:         entropy value used for ECMP hashing (set by the sender's
                    load balancer; echoed verbatim in ACKs, per Sec. 3.1).
        ecn:        ECN congestion-experienced bit (set by queues; echoed in
                    ACKs).
        is_ack:     True for acknowledgement packets.
        is_nack:    True for NACKs generated in response to trimmed packets.
        trimmed:    True once a switch trimmed this data packet to a header
                    (set only through :meth:`trim`).
        is_control: ACK, NACK or trimmed header — the packets that ride a
                    port's strict-priority control queue; maintained by
                    the constructor and :meth:`trim` so a port reads one
                    flag per enqueue instead of three.
        acked_seqs: sequence numbers acknowledged (coalesced ACKs carry >1).
        ev_echoes:  for Carry-EVs ACK coalescing: list of (ev, ecn) pairs of
                    every data packet covered by this ACK, oldest first.
        send_time:  sender timestamp of the (data) transmission, ps.
        retx:       retransmission count of this seq when it was sent.
    """

    __slots__ = (
        "src", "dst", "flow_id", "seq", "size", "ev", "ecn",
        "is_ack", "is_nack", "trimmed", "is_control", "acked_seqs",
        "ev_echoes", "send_time", "retx",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        flow_id: int,
        seq: int,
        size: int,
        ev: int,
        *,
        is_ack: bool = False,
        is_nack: bool = False,
        send_time: int = 0,
        retx: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.ev = ev
        self.ecn = False
        self.is_ack = is_ack
        self.is_nack = is_nack
        self.trimmed = False
        self.is_control = is_ack or is_nack
        self.acked_seqs: Optional[List[int]] = None
        self.ev_echoes: Optional[List[Tuple[int, bool]]] = None
        self.send_time = send_time
        self.retx = retx

    def trim(self) -> None:
        """Truncate the payload to a header, as a trimming switch would."""
        self.trimmed = self.is_control = True
        self.size = CONTROL_PACKET_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ACK" if self.is_ack else "NACK" if self.is_nack else (
            "TRIM" if self.trimmed else "DATA")
        return (f"<{kind} flow={self.flow_id} seq={self.seq} ev={self.ev} "
                f"{self.src}->{self.dst} {self.size}B ecn={int(self.ecn)}>")


def make_ack(
    data_pkt: Packet,
    *,
    acked_seqs: Optional[List[int]] = None,
    ev_echoes: Optional[List[Tuple[int, bool]]] = None,
) -> Packet:
    """Build an ACK for ``data_pkt``.

    Per Sec. 3.1 the ACK reuses the data packet's EV for its own header —
    no extra header field is needed and the ACK is hashed consistently.
    """
    ack = Packet(data_pkt.dst, data_pkt.src, data_pkt.flow_id,
                 data_pkt.seq, CONTROL_PACKET_BYTES, data_pkt.ev,
                 is_ack=True, send_time=data_pkt.send_time)
    ack.ecn = data_pkt.ecn
    ack.acked_seqs = acked_seqs
    ack.ev_echoes = ev_echoes
    return ack


def make_nack(trimmed_pkt: Packet) -> Packet:
    """Build a NACK in response to a trimmed data packet (Appendix A)."""
    return Packet(trimmed_pkt.dst, trimmed_pkt.src, trimmed_pkt.flow_id,
                  trimmed_pkt.seq, CONTROL_PACKET_BYTES, trimmed_pkt.ev,
                  is_nack=True, send_time=trimmed_pkt.send_time)
