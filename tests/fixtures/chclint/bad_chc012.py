"""Mailbox loops started as processes (CHC012)."""


class Component:
    def __init__(self, sim, endpoint):
        self.sim = sim
        self.endpoint = endpoint
        self._alive = True
        sim.process(self._message_loop(), name="messages")  # a relay
        sim.process(self._serve_loop())  # waits and serves: a real process

    def _message_loop(self):
        while self._alive:
            envelope = yield self.endpoint.messages.get()
            self.handle(envelope.payload)

    def _serve_loop(self):
        while self._alive:
            request = yield self.endpoint.requests.get()
            yield self.sim.timeout(0.2)  # service time: this one is a server
            self.endpoint.respond(request, True)

    def handle(self, payload):
        return payload


def forward(inbox, outbox):
    while True:
        outbox.put((yield inbox.get()))


def start(sim, inbox, outbox):
    return sim.process(forward(inbox, outbox))
