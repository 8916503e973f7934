"""Tomcat-like application server: thread pool, servlets and request handling."""

from repro.testbed.appserver.servlet import Servlet, ServletRegistry
from repro.testbed.appserver.thread_pool import ThreadPool
from repro.testbed.appserver.tomcat import TomcatServer

__all__ = ["Servlet", "ServletRegistry", "ThreadPool", "TomcatServer"]
