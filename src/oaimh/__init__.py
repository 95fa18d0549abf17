"""OAI metadata harvesting protocol v1.0: provider service and harvester."""

from .model import (
    Datestamp,
    ItemIdentifier,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiRequest,
    OaiVerb,
    RecordHeader,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
    datestamp_parse,
)
from .provider import Provider, ProviderConfig, ThrottlePolicy
from .store import FileStore, MemoryStore, StoredItem, fixture_store

__all__ = [
    "Datestamp",
    "FileStore",
    "ItemIdentifier",
    "MemoryStore",
    "MetadataFormatDescriptor",
    "MetadataRecord",
    "OaiRequest",
    "OaiVerb",
    "Provider",
    "ProviderConfig",
    "RecordHeader",
    "RepositoryDescription",
    "ResponseDate",
    "ResumptionToken",
    "StoredItem",
    "ThrottlePolicy",
    "datestamp_parse",
    "fixture_store",
]
