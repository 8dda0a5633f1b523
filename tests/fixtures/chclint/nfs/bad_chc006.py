"""Speculative NF bodies writing to their input packet (CHC006)."""


class StampingNF:
    speculative = True

    def process(self, packet, state):
        packet.payload = "seen"  # attribute of the input packet
        packet.meta["hops"] = 1  # item of one of its attributes
        packet.size_bytes += 4  # augmented assignment
        yield from state.update("hits", None, "incr", 1)
        return [packet]
