"""Fixture: commit-point orderings the rule must reject (4 seeded)."""


class Store:
    def save(self, key, payload):
        # Journal record lands before the payload exists on the device.
        self.journal.append({"op": "chunk", "key": key})
        self.device.write(key, payload)

    def save_branchy(self, key, payload):
        if payload.nbytes:
            self.device.write(key, payload)
        # On the else path the write never happened.
        self.journal.append({"op": "seal", "key": key})

    def free(self, context_id):
        self.device.delete(context_id)
        # A crash between the delete and this record resurrects the
        # half-deleted context on replay.
        self.journal.append({"op": "free", "context_id": context_id})

    def refill(self, key, partial_key, payload):
        if self.partial:
            # A crash between this delete and the record below loses the
            # rows the partial held.
            self.device.delete(partial_key)
        self.device.write(key, payload)
        self.journal.append({"op": "chunk", "key": key})
