from covshift.cli import entry

entry()
